package engine

import (
	"repro/internal/boolexpr"
	"repro/internal/relation"
)

// Rel is an annotated relation: a schema, distinct tuples, and a parallel
// slice of semiring annotations. A hash index from encoded tuple to
// position is built lazily: operators that preserve distinctness
// (selection, join) append without hashing, while duplicate-merging
// operators (base scan, projection, union) and probes (difference, Lookup)
// pay for the index only when they need it. This replaces the linear scans
// of the legacy evaluators with O(1) probes without taxing the operators
// that never probe.
type Rel[T any] struct {
	Schema relation.Schema
	Tuples []relation.Tuple
	Anns   []T

	index map[string]int
}

// ProvRel is the result of how-provenance evaluation.
type ProvRel = Rel[*boolexpr.Expr]

// NewRel creates an empty annotated relation.
func NewRel[T any](schema relation.Schema) *Rel[T] {
	return &Rel[T]{Schema: schema}
}

// NewRelCap creates an empty annotated relation with capacity for n tuples.
// Operators that know an output bound preallocate through this: repeated
// slice growth copies the annotation array as well as the tuple array, and
// annotations can be wide (the batch semirings' multi-word masks), so
// avoiding regrowth matters most exactly when annotations are biggest.
func NewRelCap[T any](schema relation.Schema, n int) *Rel[T] {
	return &Rel[T]{
		Schema: schema,
		Tuples: make([]relation.Tuple, 0, n),
		Anns:   make([]T, 0, n),
	}
}

// Len returns the number of distinct tuples.
func (r *Rel[T]) Len() int { return len(r.Tuples) }

// ensureIndex builds the tuple-key hash index if it is missing. Rel tuples
// are always distinct, so the build is collision-free.
func (r *Rel[T]) ensureIndex() {
	if r.index != nil {
		return
	}
	r.index = make(map[string]int, len(r.Tuples))
	for i, t := range r.Tuples {
		r.index[t.Key()] = i
	}
}

// Add inserts a tuple, ⊕-merging its annotation if an identical tuple is
// already present.
func (r *Rel[T]) Add(s Semiring[T], t relation.Tuple, ann T) {
	r.ensureIndex()
	k := t.Key()
	if i, ok := r.index[k]; ok {
		r.Anns[i] = s.Plus(r.Anns[i], ann)
		return
	}
	r.index[k] = len(r.Tuples)
	r.Tuples = append(r.Tuples, t)
	r.Anns = append(r.Anns, ann)
}

// appendDistinct appends a tuple the caller guarantees is not already
// present (e.g. produced by a distinctness-preserving operator). It skips
// key hashing unless an index already exists.
func (r *Rel[T]) appendDistinct(t relation.Tuple, ann T) {
	if r.index != nil {
		r.index[t.Key()] = len(r.Tuples)
	}
	r.Tuples = append(r.Tuples, t)
	r.Anns = append(r.Anns, ann)
}

// Lookup returns the position of an identical tuple, or -1. It is a hash
// probe (the index is built on first use).
func (r *Rel[T]) Lookup(t relation.Tuple) int {
	r.ensureIndex()
	if i, ok := r.index[t.Key()]; ok {
		return i
	}
	return -1
}

// Relation strips annotations, returning a plain relation.
func (r *Rel[T]) Relation(name string) *relation.Relation {
	out := relation.NewRelation(name, r.Schema)
	out.Tuples = append(out.Tuples, r.Tuples...)
	return out
}
