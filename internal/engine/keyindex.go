package engine

import (
	"hash/maphash"
	"math"

	"repro/internal/relation"
)

// This file is the equi-key index that every key probe goes through: the
// hash join's build and probe, the Yannakakis semi-join, the join delta
// rule's retained indexes and FirstDiff's probes. It compares keys exactly as
// `=` does (relation.Value.Equal), so a θ-, natural or planned equi-join
// matches Int(1) with Float(1.0), and no probe builds a Tuple.Key string.
// The dedup index behind Rel.Add, ∪, − and γ keep identity (Tuple.Key).

// keyIndex indexes positions of a relation's tuples by their values in
// cols. Positions are chained per 64-bit hash of those values in insertion
// order, and a probe confirms each candidate value by value: the first nEq
// columns with Value.Equal (a NULL matches nothing, so a tuple with a NULL
// there is not indexed), the rest with Value.Identical (NULL matches NULL).
// An index over a relation that only grows is extended with sync.
type keyIndex struct {
	cols   []int
	nEq    int
	chains map[uint64]chain
	next   []int32 // next[i] follows position i in its chain; -1 ends it
}

// chain is the first and last position of one hash's chain.
type chain struct{ head, tail int32 }

// newKeyIndex indexes tuples by their values in cols, of which the first
// nEq compare with Value.Equal.
func newKeyIndex(tuples []relation.Tuple, cols []int, nEq int) *keyIndex {
	x := &keyIndex{cols: cols, nEq: nEq, chains: make(map[uint64]chain, len(tuples)), next: make([]int32, 0, len(tuples))}
	x.sync(tuples)
	return x
}

// sync indexes the positions appended to tuples since the last call.
func (x *keyIndex) sync(tuples []relation.Tuple) {
	for i := len(x.next); i < len(tuples); i++ {
		x.next = append(x.next, -1)
		t := tuples[i]
		if hasNullAt(t, x.cols[:x.nEq]) {
			continue
		}
		h := hashKey(t, x.cols)
		if c, ok := x.chains[h]; ok {
			x.next[c.tail] = int32(i)
			x.chains[h] = chain{c.head, int32(i)}
		} else {
			x.chains[h] = chain{int32(i), int32(i)}
		}
	}
}

// lookup appends to buf, in insertion order, the positions whose values in
// the index's columns equal key's values in keyCols, and returns it.
func (x *keyIndex) lookup(tuples []relation.Tuple, key relation.Tuple, keyCols []int, buf []int) []int {
	if hasNullAt(key, keyCols[:x.nEq]) {
		return buf
	}
	c, ok := x.chains[hashKey(key, keyCols)]
	if !ok {
		return buf
	}
	for i := c.head; i >= 0; i = x.next[i] {
		if x.matches(tuples[i], key, keyCols) {
			buf = append(buf, int(i))
		}
	}
	return buf
}

func (x *keyIndex) matches(t, key relation.Tuple, keyCols []int) bool {
	for k, c := range x.cols {
		a, b := t[c], key[keyCols[k]]
		if k < x.nEq && !a.Equal(b) || k >= x.nEq && !a.Identical(b) {
			return false
		}
	}
	return true
}

func hasNullAt(t relation.Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

// keySeed seeds the string hash. It is fixed at start-up and only read, so
// concurrent evaluations share it safely; nothing observable depends on it,
// since chains keep insertion order.
var keySeed = maphash.MakeSeed()

// hashKey hashes t's values in cols. Values that are Equal or Identical hash
// alike: a number hashes by its integer value when it is integral and fits
// an int64 (so Int(1), Float(1) and Float(-0) with Int(0) collide), and by
// its bits otherwise.
func hashKey(t relation.Tuple, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = mix(h ^ hashValue(t[c]))
	}
	return h
}

func hashValue(v relation.Value) uint64 {
	switch v.Kind() {
	case relation.KindInt:
		return uint64(v.AsInt())
	case relation.KindFloat:
		f := v.AsFloat()
		if t := math.Trunc(f); t == f && f >= -(1<<63) && f < 1<<63 {
			return uint64(int64(t))
		}
		return math.Float64bits(f)
	case relation.KindString:
		return maphash.String(keySeed, v.AsString())
	case relation.KindBool:
		if v.AsBool() {
			return 1
		}
		return 0
	}
	return 0x9e3779b97f4a7c15 // NULL, which only identity columns index
}

// mix is a 64-bit finalizer (splitmix64's), so that nearby integers spread
// over the map's buckets.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
