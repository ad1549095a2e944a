package engine

import (
	"errors"
	"slices"

	"repro/internal/faults"
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is first-witness evaluation. The single-witness algorithms use
// one tuple of the difference: the first of Q1 − Q2 in Q1's order, else the
// first of Q2 − Q1 in Q2's order. FirstDiff finds it without materializing
// Q2's top join. Q1 is evaluated in full and Q2 up to that join, in one exec
// over one plan DAG. Whether Q1 − Q2 is empty is decided by a hash semi-join
// of Q1's result into the join: every output column of Q2's root chain (the
// σ, π, ρ and Permute nodes above the join) copies one column of a join
// input, so a Q1 tuple fixes those columns, and only input pairs carrying
// its values can produce it. When every Q1 tuple is produced, the join's own
// emit loop streams its pairs through the chain in Q2's order and stops at
// the first output Q1 lacks.

// FirstDiff returns the tuple the first-witness rule picks from q1 and q2 on
// db under set semantics: the first tuple of Q1 − Q2 in Q1's order (inQ1
// true), else the first tuple of Q2 − Q1 in Q2's order, or nil when the
// queries agree. It is the tuple that EvalPair's two results and
// relation.SetDiff give. Two prepared roots that are one node agree without
// any evaluation. A Q2 whose topmost operator below its root chain is not a
// join, or is a node Q1 shares, is evaluated in full.
//
// The streamed pairs of Q2's top join count against the row budget and the
// Stop stride as a materialized join's output does, so a stream never runs
// unbounded. FirstDiff fails wherever EvalPair fails before Q2's top join.
// It may succeed where EvalPair fails past the witness, in that join or its
// root chain: by the row budget, or by an expression error (a division by
// zero) at a pair the stream never reaches.
func FirstDiff(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (t relation.Tuple, inQ1 bool, err error) {
	faults.Inject(faults.EngineEval)
	roots, err := prepare([]ra.Node{q1, q2}, db, opts, true)
	if err != nil {
		return nil, false, err
	}
	if roots[0] == roots[1] {
		return nil, false, nil
	}
	e := newExec[bool](Set, db, params, opts)
	e.markShared(roots[0])
	e.markShared(roots[1])
	r1, err := e.node(roots[0])
	if err != nil {
		return nil, false, err
	}
	s, err := newJoinStream(e, roots[1])
	if err != nil {
		return nil, false, err
	}
	if s == nil {
		r2, err := e.node(roots[1])
		if err != nil {
			return nil, false, err
		}
		t, inQ1 = firstDiffOf(r1, r2)
		return t, inQ1, nil
	}
	for _, t := range r1.Tuples {
		found, err := s.produces(t)
		if err != nil {
			return nil, false, err
		}
		if !found {
			return t, true, nil
		}
	}
	t, err = s.first(r1)
	return t, false, err
}

// firstDiffOf applies the first-witness rule to two evaluated results.
func firstDiffOf(r1, r2 *Rel[bool]) (relation.Tuple, bool) {
	for _, t := range r1.Tuples {
		if r2.Lookup(t) < 0 {
			return t, true
		}
	}
	for _, t := range r2.Tuples {
		if r1.Lookup(t) < 0 {
			return t, false
		}
	}
	return nil, false
}

// rootChain splits a plan into its root chain, the σ, π, ρ and Permute
// nodes from the root down, and the first node below them.
func rootChain(n ra.Node) (chain []ra.Node, top ra.Node) {
	//lint:budgeted each pass descends one node of a finite plan, with no evaluation
	for {
		switch x := n.(type) {
		case *ra.Select:
			chain, n = append(chain, n), x.In
		case *ra.Project:
			chain, n = append(chain, n), x.In
		case *ra.Rename:
			chain, n = append(chain, n), x.In
		case *ra.Permute:
			chain, n = append(chain, n), x.In
		default:
			return chain, n
		}
	}
}

// chainOp is one compiled σ (pred) or column selection of π or Permute
// (idxs); a ρ changes only the schema and compiles to nothing.
type chainOp struct {
	pred ra.CompiledExpr
	idxs []int
}

// joinStream is Q2's top join over its evaluated inputs, with its root
// chain compiled bottom-up.
type joinStream struct {
	e     *exec[bool]
	spec  *joinSpec
	l, r  *Rel[bool]
	chain []chainOp
	// cols maps each output column of the chain to its join column. The
	// semi-join drives from input d and probes input o; dRight says d is
	// the join's right input.
	cols   []int
	d, o   probeSide
	dRight bool
	pairs  int // pairs the semi-join has tested, for the Stop stride
}

// newJoinStream evaluates the inputs of root's top join and compiles its
// root chain. It returns nil when the node below the chain is not a join,
// or when a chain node or the join is already evaluated because Q1 shares
// it: evaluating root in full then costs no more.
func newJoinStream(e *exec[bool], root ra.Node) (*joinStream, error) {
	chain, top := rootChain(root)
	switch top.(type) {
	case *ra.Join, *ra.EquiJoin:
	default:
		return nil, nil
	}
	for _, n := range chain {
		if _, ok := e.memo[n]; ok {
			return nil, nil
		}
	}
	if _, ok := e.memo[top]; ok {
		return nil, nil
	}
	j, l, r, err := e.evalJoinInputs(top)
	if err != nil {
		return nil, err
	}
	s := &joinStream{e: e, spec: j.spec, l: l, r: r}
	schema := j.spec.schema
	for i := len(chain) - 1; i >= 0; i-- {
		switch x := chain[i].(type) {
		case *ra.Select:
			pred, err := ra.CompileExpr(x.Pred, schema, e.params)
			if err != nil {
				return nil, err
			}
			s.chain = append(s.chain, chainOp{pred: pred})
		case *ra.Project:
			idxs, out, err := projectPlan(x, schema)
			if err != nil {
				return nil, err
			}
			s.chain = append(s.chain, chainOp{idxs: idxs})
			schema = out
		case *ra.Rename:
			schema = schema.Qualify(x.As)
		case *ra.Permute:
			s.chain = append(s.chain, chainOp{idxs: x.Idxs})
			schema = schema.Project(x.Idxs)
		}
	}
	s.cols = make([]int, schema.Arity())
	for i := range s.cols {
		s.cols[i] = i
	}
	for i := len(s.chain) - 1; i >= 0; i-- {
		if op := s.chain[i]; op.pred == nil {
			for k, c := range s.cols {
				s.cols[k] = op.idxs[c]
			}
		}
	}
	s.d = probeSide{rel: l, keys: j.spec.lKeys}
	s.o = probeSide{rel: r, keys: j.spec.rKeys}
	lArity := l.Schema.Arity()
	for k, c := range s.cols {
		p := &s.d
		if c >= lArity {
			p, c = &s.o, c-lArity
			if j.spec.natural {
				c = j.spec.rOnly[c]
			}
		}
		if !slices.Contains(p.fixed, c) {
			p.fixed = append(p.fixed, c)
			p.tpos = append(p.tpos, k)
		}
	}
	// Drive from the left input when a probed tuple fixes some of its
	// columns: then, when it fixes none of the right's, the right's probe
	// index is the hash join's key index, which the stream reuses.
	if len(s.d.fixed) == 0 {
		s.d, s.o, s.dRight = s.o, s.d, true
	}
	return s, nil
}

// apply runs a join output tuple through the chain, reporting false when a
// σ rejects it.
func (s *joinStream) apply(t relation.Tuple) (relation.Tuple, bool, error) {
	for _, op := range s.chain {
		if op.pred == nil {
			t = t.Project(op.idxs)
			continue
		}
		v, err := op.pred(t)
		if err != nil || !ra.Truthy(v) {
			return nil, false, err
		}
	}
	return t, true, nil
}

// produces reports whether Q2 produces t: whether some input pair that
// carries t's values in the columns t fixes passes the join's keys and
// θ-condition and the chain's σ, and the chain maps it to t. The driving
// side's tuples with t's values probe the other side by join key and fixed
// values together, so each tested pair matches on both.
func (s *joinStream) produces(t relation.Tuple) (bool, error) {
	if len(t) != len(s.cols) {
		return false, nil
	}
	for _, di := range s.d.candidates(t) {
		dt := s.d.rel.Tuples[di]
		for _, oi := range s.o.matches(dt, s.d.keys, t) {
			if s.pairs++; s.pairs%stopPollStride == 0 {
				if err := s.e.opts.poll(); err != nil {
					return false, err
				}
			}
			lt, rt := dt, s.o.rel.Tuples[oi]
			if s.dRight {
				lt, rt = rt, lt
			}
			jt, ok, err := s.spec.pair(lt, rt)
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			out, ok, err := s.apply(jt)
			if err != nil {
				return false, err
			}
			if ok && out.Identical(t) {
				return true, nil
			}
		}
	}
	return false, nil
}

// errWitness stops a stream at its witness.
var errWitness = errors.New("engine: witness found")

// first streams the join's pairs through the chain, in the order a
// materialized join would emit them, and returns the first output r1 lacks,
// or nil when there is none.
func (s *joinStream) first(r1 *Rel[bool]) (relation.Tuple, error) {
	var rIdx *keyIndex
	if !s.dRight && len(s.o.fixed) == 0 {
		rIdx = s.o.byKeyFixed // the right's key index, when the probe built it
	}
	var w relation.Tuple
	err := s.e.joinPairs(s.spec, s.l, s.r, rIdx, func(_, _ int, t relation.Tuple, _ bool) error {
		out, ok, err := s.apply(t)
		if err != nil || !ok {
			return err
		}
		if r1.Lookup(out) < 0 {
			w = out
			return errWitness
		}
		return nil
	})
	if err != nil && !errors.Is(err, errWitness) {
		return nil, err
	}
	return w, nil
}

// probeSide is one input of a streamed join, as the semi-join probes it.
type probeSide struct {
	rel  *Rel[bool]
	keys []int // the join's equi-key columns on this side
	// fixed lists the columns a probed tuple fixes, and tpos the positions
	// in that tuple of their values.
	fixed, tpos []int
	// every, byFixed and byKeyFixed are built on first use: every position,
	// an index on the fixed values, and an index on the key and fixed
	// values. Keys compare as `=` does and fixed values by identity, so a
	// NULL a probed tuple holds matches a NULL.
	every               []int
	byFixed, byKeyFixed *keyIndex
	// probe holds a key and fixed values to look up, and probeCols its
	// positions; cbuf and mbuf hold the positions a lookup returns.
	probe      relation.Tuple
	probeCols  []int
	cbuf, mbuf []int
}

// candidates returns the positions whose fixed columns hold t's values:
// every position when t fixes none of this side's columns.
func (p *probeSide) candidates(t relation.Tuple) []int {
	if len(p.fixed) == 0 {
		if p.every == nil {
			p.every = make([]int, p.rel.Len())
			for i := range p.every {
				p.every[i] = i
			}
		}
		return p.every
	}
	if p.byFixed == nil {
		p.byFixed = newKeyIndex(p.rel.Tuples, p.fixed, 0)
	}
	p.cbuf = p.byFixed.lookup(p.rel.Tuples, t, p.tpos, p.cbuf[:0])
	return p.cbuf
}

// matches returns the candidates for t that also join the other side's
// tuple d on the equi-keys (dKeys are d's key columns).
func (p *probeSide) matches(d relation.Tuple, dKeys []int, t relation.Tuple) []int {
	if len(p.keys) == 0 {
		return p.candidates(t)
	}
	if p.byKeyFixed == nil {
		cols := append(slices.Clip(p.keys), p.fixed...)
		p.byKeyFixed = newKeyIndex(p.rel.Tuples, cols, len(p.keys))
		p.probeCols = make([]int, len(cols))
		for i := range p.probeCols {
			p.probeCols[i] = i
		}
	}
	p.probe = p.probe[:0]
	for _, c := range dKeys {
		p.probe = append(p.probe, d[c])
	}
	for _, c := range p.tpos {
		p.probe = append(p.probe, t[c])
	}
	p.mbuf = p.byKeyFixed.lookup(p.rel.Tuples, p.probe, p.probeCols, p.mbuf[:0])
	return p.mbuf
}
