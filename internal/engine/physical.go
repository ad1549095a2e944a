package engine

import (
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the physical operator layer: the join (hash equi-join on the
// keys EquiJoinPlan or the planner extracts, nested loops for cross products
// and residual-only θ-conditions), hash-based union/difference and
// duplicate merging.

// joinSpec is one join's physical plan over its input schemas: the equi-key
// columns (none for a cross product or a residual-only θ-join), the
// residual θ-condition, and how a matched pair forms its output tuple. The
// θ-join, the natural join and the planner's positional equi-join all
// evaluate through it, and so does the delta rule for joins.
type joinSpec struct {
	schema       relation.Schema
	lKeys, rKeys []int
	// natural joins keep the left columns plus rOnly of the right; every
	// other join keeps the full concatenation.
	natural bool
	rOnly   []int
	pred    ra.CompiledExpr // residual θ-condition over the concatenation, or nil
}

// joinIndex is a join node's plan, kept by an exec that keeps plans
// (PrepareDiff's), with an equi-key index over each input's retained output
// for the join delta rule; the base evaluation's hash join probes the right
// one. Both are extended on every update to the positions commits appended
// since: tuples resurrected through a Diff keep their old, already-indexed
// position.
type joinIndex struct {
	spec       *joinSpec
	lIdx, rIdx *keyIndex
}

// joinInputs returns a join node's two inputs.
func joinInputs(q ra.Node) (ra.Node, ra.Node) {
	if x, ok := q.(*ra.EquiJoin); ok {
		return x.L, x.R
	}
	x := q.(*ra.Join)
	return x.L, x.R
}

// newJoinSpec plans a θ-join, natural join or planner-emitted equi-join
// over the given input schemas.
func newJoinSpec(q ra.Node, l, r relation.Schema, params map[string]relation.Value) (*joinSpec, error) {
	if x, ok := q.(*ra.EquiJoin); ok {
		// Positional keys, never a residual; the trailing Permute drops and
		// reorders columns.
		return &joinSpec{schema: l.Concat(r), lKeys: x.LKeys, rKeys: x.RKeys}, nil
	}
	x := q.(*ra.Join)
	if x.Cond == nil {
		shared, rOnly := ra.NaturalJoinCols(l, r)
		attrs := make([]relation.Attribute, 0, len(l.Attrs)+len(rOnly))
		attrs = append(attrs, l.Attrs...)
		for _, j := range rOnly {
			attrs = append(attrs, r.Attrs[j])
		}
		j := &joinSpec{schema: relation.Schema{Attrs: attrs}, natural: true, rOnly: rOnly,
			lKeys: make([]int, len(shared)), rKeys: make([]int, len(shared))}
		for i, p := range shared {
			j.lKeys[i], j.rKeys[i] = p[0], p[1]
		}
		return j, nil
	}
	j := &joinSpec{schema: l.Concat(r)}
	var residual ra.Expr
	j.lKeys, j.rKeys, residual = EquiJoinPlan(x.Cond, l, r)
	if residual != nil {
		pred, err := ra.CompileExpr(residual, j.schema, params)
		if err != nil {
			return nil, err
		}
		j.pred = pred
	}
	return j, nil
}

// pair builds the output tuple of two key-matched input tuples, reporting
// false when the residual θ-condition rejects them.
func (j *joinSpec) pair(lt, rt relation.Tuple) (relation.Tuple, bool, error) {
	if j.natural {
		return lt.Concat(rt.Project(j.rOnly)), true, nil
	}
	t := lt.Concat(rt)
	if j.pred != nil {
		v, err := j.pred(t)
		if err != nil {
			return nil, false, err
		}
		if !ra.Truthy(v) {
			return nil, false, nil
		}
	}
	return t, true, nil
}

// joinNode evaluates a θ-join, natural join or planner-emitted equi-join
// node.
func (e *exec[T]) joinNode(q ra.Node) (*Rel[T], error) {
	j, l, r, err := e.evalJoinInputs(q)
	if err != nil {
		return nil, err
	}
	res, err := e.join(j.spec, l, r, j.rIdx)
	if err != nil {
		return nil, err
	}
	if x, ok := q.(*ra.EquiJoin); ok {
		e.opts.Observer.observe(x, res.Len())
	}
	return res, nil
}

// evalJoinInputs evaluates a join node's two inputs and returns them with the
// node's plan: the one the exec kept, or a new one (kept when the exec
// keeps plans).
func (e *exec[T]) evalJoinInputs(q ra.Node) (*joinIndex, *Rel[T], *Rel[T], error) {
	lq, rq := joinInputs(q)
	l, err := e.node(lq)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := e.node(rq)
	if err != nil {
		return nil, nil, nil, err
	}
	j, ok := e.plans[q].(*joinIndex)
	if !ok {
		spec, err := newJoinSpec(q, l.Schema, r.Schema, e.params)
		if err != nil {
			return nil, nil, nil, err
		}
		j = &joinIndex{spec: spec}
		if e.plans != nil && len(spec.lKeys) > 0 {
			j.lIdx = newKeyIndex(l.Tuples, spec.lKeys, len(spec.lKeys))
			j.rIdx = newKeyIndex(r.Tuples, spec.rKeys, len(spec.rKeys))
		}
		e.keep(q, j)
	}
	return j, l, r, nil
}

// join materializes a join plan's output. rIdx, when non-nil, is the hash
// join's key index over r, already built. A natural cross product whose
// size alone exceeds the row budget is refused before any pair is formed.
func (e *exec[T]) join(j *joinSpec, l, r *Rel[T], rIdx *keyIndex) (*Rel[T], error) {
	if j.natural && len(j.lKeys) == 0 && crossExceedsBudget(l.Len(), r.Len(), e.opts.rowBudget()) {
		return nil, ErrRowBudget
	}
	out := NewRel[T](j.schema)
	merge := false
	err := e.joinPairs(j, l, r, rIdx, func(li, ri int, t relation.Tuple, ann T) error {
		// Distinct pairs of distinct inputs form distinct tuples, except
		// where a natural join drops a right key value that is Equal but
		// not identical to the left's (Float(1) beside Int(1)): two right
		// tuples that differ only there form the same output. From the
		// first such pair on, outputs ⊕-merge.
		merge = merge || j.natural && !j.identicalKeys(l.Tuples[li], r.Tuples[ri])
		if merge {
			out.Add(e.s, t, ann)
		} else {
			out.appendDistinct(t, ann)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// identicalKeys reports whether a matched pair's key values are identical,
// not merely Equal.
func (j *joinSpec) identicalKeys(lt, rt relation.Tuple) bool {
	for i, c := range j.lKeys {
		if !lt[c].Identical(rt[j.rKeys[i]]) {
			return false
		}
	}
	return true
}

// joinPairs is the join's emit loop: a hash join on the equi-keys when there
// are any, nested loops otherwise. It hands every accepted pair's input
// positions, output tuple and annotation to sink, in output order, and
// stops at the first error sink returns. Materializing a join and streaming
// one (FirstDiff) share it, so both count accepted pairs against the same
// row budget and poll Stop on the same stride.
func (e *exec[T]) joinPairs(j *joinSpec, l, r *Rel[T], rIdx *keyIndex, sink func(li, ri int, t relation.Tuple, ann T) error) error {
	if l.Len() == 0 || r.Len() == 0 {
		return nil
	}
	var pairs, rows int
	emit := func(li, ri int) error {
		// Stride-poll the stop hook: emit sees every probed pair, so this
		// bounds a deadline overshoot inside one join to stopPollStride
		// pairs.
		if pairs++; pairs%stopPollStride == 0 {
			if err := e.opts.poll(); err != nil {
				return err
			}
		}
		// With a θ-predicate the pair is tested before the ⊗-product:
		// Times can be expensive (why-provenance allocates an And node), so
		// rejected pairs — the bulk of a nested-loop θ-join — must not pay
		// for it. Without one the zero-product prune runs first and saves
		// the output tuple of pruned pairs.
		var t relation.Tuple
		if j.pred != nil {
			var ok bool
			var err error
			if t, ok, err = j.pair(l.Tuples[li], r.Tuples[ri]); err != nil || !ok {
				return err
			}
		}
		// Definitely-zero ⊗-products are pruned (bitvector annotations of
		// disjoint candidate sets AND to zero) and do not count against the
		// row budget.
		ann := e.s.Times(l.Anns[li], r.Anns[ri])
		if e.s.IsZero(ann) {
			return nil
		}
		if rows >= e.opts.rowBudget() {
			return ErrRowBudget
		}
		rows++
		if t == nil {
			t, _, _ = j.pair(l.Tuples[li], r.Tuples[ri])
		}
		return sink(li, ri, t, ann)
	}
	if len(j.lKeys) > 0 {
		if rIdx == nil {
			rIdx = newKeyIndex(r.Tuples, j.rKeys, len(j.rKeys))
		}
		var buf []int
		for li, lt := range l.Tuples {
			buf = rIdx.lookup(r.Tuples, lt, j.lKeys, buf[:0])
			for _, ri := range buf {
				if err := emit(li, ri); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for li := range l.Tuples {
		for ri := range r.Tuples {
			if err := emit(li, ri); err != nil {
				return err
			}
		}
	}
	return nil
}

// union hash-merges both inputs, ⊕-combining annotations of identical
// tuples.
func (e *exec[T]) union(l, r *Rel[T]) *Rel[T] {
	out := NewRel[T](l.Schema)
	for _, in := range []*Rel[T]{l, r} {
		for i, t := range in.Tuples {
			if !e.s.IsZero(in.Anns[i]) {
				out.Add(e.s, t, in.Anns[i])
			}
		}
	}
	return out
}

// diff applies the semiring's Minus across L − R, probing R's hash index
// for the matching right annotation. Tuples whose combined annotation is
// (definitely) zero are pruned: under the set and counting semirings that
// is the classical set difference, while why-provenance keeps every left
// tuple annotated PrvL ∧ ¬PrvR (Section 6).
func (e *exec[T]) diff(l, r *Rel[T]) *Rel[T] {
	out := NewRelCap[T](l.Schema, l.Len())
	for i, t := range l.Tuples {
		rAnn := e.s.Zero()
		if j := r.Lookup(t); j >= 0 {
			rAnn = r.Anns[j]
		}
		ann := e.s.Minus(l.Anns[i], rAnn)
		if e.s.IsZero(ann) {
			continue
		}
		// Output is a subset of the distinct left input.
		out.appendDistinct(t, ann)
	}
	return out
}

// crossExceedsBudget reports whether l*r > budget without computing the
// product, which can overflow int for two large inputs (and a wrapped
// product could slip past the budget check).
func crossExceedsBudget(l, r, budget int) bool {
	return l > 0 && r > budget/l
}
