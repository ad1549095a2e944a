package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// TupleID is a database-wide unique identifier of a base tuple, used as the
// provenance variable for that tuple (the t1, t2, ... annotations in the
// paper). Derived tuples produced by query evaluation have no TupleID.
type TupleID int

// InvalidTupleID marks the absence of an identifier.
const InvalidTupleID TupleID = -1

// Label renders the identifier in the paper's "t<N>" style.
func (id TupleID) Label() string {
	if id == InvalidTupleID {
		return "t?"
	}
	return "t" + strconv.Itoa(int(id))
}

// Tuple is an ordered list of values. Tuples are positional; their meaning
// comes from an accompanying Schema.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return Tuple(vals) }

// Key encodes the tuple into a string usable as a set-semantics
// deduplication key. Identical tuples (Value.Identical per position) have
// identical keys.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteByte(byte(v.kind) + '0')
		b.WriteByte('\x1f')
		switch v.kind {
		case KindInt, KindBool:
			b.WriteString(strconv.FormatInt(v.i, 10))
		case KindFloat:
			f := v.f
			if f == 0 {
				f = 0 // −0 is Identical to 0
			}
			b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		case KindString:
			b.WriteString(v.s)
		}
		b.WriteByte('\x1e')
	}
	return b.String()
}

// Identical reports positionwise exact equality with another tuple.
func (t Tuple) Identical(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Identical(o[i]) {
			return false
		}
	}
	return true
}

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(idxs []int) Tuple {
	out := make(Tuple, len(idxs))
	for i, j := range idxs {
		out[i] = t[j]
	}
	return out
}

// Concat returns the concatenation of two tuples.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s)", strings.Join(parts, ", "))
}
