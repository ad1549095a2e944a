package engine

import (
	"repro/internal/ra"
)

// This file executes the physical nodes the cost-based planner emits besides
// its positional equi-join (which runs through the join in physical.go): the
// semi-join filter of the Yannakakis reduction, and the column permutation
// that restores a reordered region's original output schema.

// semiJoin executes L ⋉ R: left tuples with at least one key match on the
// right, under the equi-key index's `=`, survive with their annotation
// untouched — a pure filter, sound for every semiring. Left tuples with
// NULL key columns are dropped (they could never survive the eventual
// equi-join on the same columns).
func (e *exec[T]) semiJoin(x *ra.Semi, l, r *Rel[T]) (*Rel[T], error) {
	out := NewRelCap[T](l.Schema, l.Len())
	idx := newKeyIndex(r.Tuples, x.RKeys, len(x.RKeys))
	var probed int
	var buf []int
	for i, t := range l.Tuples {
		if probed++; probed%stopPollStride == 0 {
			if err := e.opts.poll(); err != nil {
				return nil, err
			}
		}
		if buf = idx.lookup(r.Tuples, t, x.LKeys, buf[:0]); len(buf) == 0 {
			continue
		}
		// Output is a subset of the distinct left input.
		out.appendDistinct(t, l.Anns[i])
	}
	return out, nil
}

// permute reorders (and possibly drops) columns positionally. The planner
// only drops columns that are join-enforced equal to kept ones, so the
// mapping is injective on its input; Add still ⊕-merges defensively.
func (e *exec[T]) permute(x *ra.Permute, in *Rel[T]) *Rel[T] {
	out := NewRel[T](in.Schema.Project(x.Idxs))
	for i, t := range in.Tuples {
		if !e.s.IsZero(in.Anns[i]) {
			out.Add(e.s, t.Project(x.Idxs), in.Anns[i])
		}
	}
	return out
}
