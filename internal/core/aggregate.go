package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/minones"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/smt"
)

// AggOptions configure the aggregate algorithms.
type AggOptions struct {
	// Parameterize keeps HAVING thresholds symbolic (Section 5.3.1,
	// Definition 3: smallest parameterized counterexample).
	Parameterize bool
	// MaxGroups bounds how many candidate groups are tried (smallest
	// first); 0 means 4.
	MaxGroups int
	// MaxNodes bounds the branch-and-bound solver (0 = package default).
	MaxNodes int64
	// MaxRetries bounds AggOpt's model re-enumeration loop (0 = 64).
	MaxRetries int
}

// AggBasic implements the provenance-for-aggregate-queries approach of
// Section 5.2: encode, for a candidate output group, "the group's presence
// differs between Q1 and Q2, or some aggregate value differs" as a symbolic
// constraint over the tuple variables (Table 2 / Listing 2) and minimize
// the number of kept tuples with the optimizing solver.
//
// With opts.Parameterize it solves the smallest parameterized
// counterexample problem instead (Section 5.3.1): HAVING thresholds become
// symbolic integer parameters chosen by the solver.
func AggBasic(p Problem, opts AggOptions) (*Counterexample, *Stats, error) {
	name := "Agg-Basic"
	var rq1, rq2 ra.Node // the rewritten queries, if any
	if opts.Parameterize {
		name = "Agg-Param"
		pp := p.withHavingParams()
		rq1, rq2 = p.rewrites(pp)
		p = pp
	}
	stats := &Stats{Algorithm: name}
	start := time.Now()
	d12, d21, err := p.baseDiff(stats)
	if err != nil {
		return nil, nil, err
	}

	// Aggregate provenance. When parameterizing, the HAVING parameters are
	// withheld from the binding so they stay symbolic.
	provParams := p.Params
	var paramNames []string
	if opts.Parameterize {
		provParams = map[string]relation.Value{}
		for k, v := range p.Params {
			provParams[k] = v
		}
		for _, n := range append(ra.CollectParams(p.Q1), ra.CollectParams(p.Q2)...) {
			delete(provParams, n)
			paramNames = append(paramNames, n)
		}
	}
	t0 := time.Now()
	ap1, err := evalAggProvHaving(p.Q1, p.DB, provParams, p.Params, p.engineOpts())
	if err != nil {
		return nil, nil, err
	}
	ap2, err := evalAggProvHaving(p.Q2, p.DB, provParams, p.Params, p.engineOpts())
	if err != nil {
		return nil, nil, err
	}
	stats.ProvEvalTime = time.Since(t0)

	// Candidate groups: keys present in either side. Groups whose concrete
	// output rows already differ come first (they are certain to admit a
	// counterexample under the original parameters); within each class the
	// smallest group is tried first (the paper picks the group with the
	// fewest tuples for tractability).
	differKeys := map[string]bool{}
	for _, side := range []struct {
		rel *relation.Relation
		ap  *aggProvResult
	}{{d12, ap1}, {d21, ap2}} {
		// An output tuple's non-aggregate columns locate its groups: index
		// the side's groups by them once (a projection that drops group
		// columns maps several groups to one output key).
		byOut := map[string][]string{}
		for _, g := range side.ap.Groups {
			k := projectedKey(g, side.ap).Key()
			byOut[k] = append(byOut[k], g.Key.Key())
		}
		for _, tup := range side.rel.Tuples {
			var key relation.Tuple
			for pos, c := range side.ap.OutCols {
				if !c.IsAgg && pos < len(tup) {
					key = append(key, tup[pos])
				}
			}
			for _, gk := range byOut[key.Key()] {
				differKeys[gk] = true
			}
		}
	}
	type cand struct {
		key     relation.Tuple
		size    int
		differs bool
	}
	var cands []cand
	seen := map[string]bool{}
	for _, ap := range []*aggProvResult{ap1, ap2} {
		for _, g := range ap.Groups {
			ks := g.Key.Key()
			if seen[ks] {
				continue
			}
			seen[ks] = true
			size := g.Size
			if o := otherGroup(ap1, ap2, ap, g.Key); o != nil && o.Size > size {
				size = o.Size
			}
			cands = append(cands, cand{key: g.Key, size: size, differs: differKeys[ks]})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].differs != cands[j].differs {
			return cands[i].differs
		}
		return cands[i].size < cands[j].size
	})
	maxGroups := opts.MaxGroups
	if maxGroups <= 0 {
		maxGroups = 4
	}
	if len(cands) > maxGroups {
		cands = cands[:maxGroups]
	}

	var specs []smt.ParamSpec
	if opts.Parameterize {
		specs = paramSpecs(paramNames, p.Params)
	}

	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	// Solve every candidate group first, then verify the solved candidates
	// one at a time: the plans contain γ, which the bitvector batch cannot
	// evaluate (aggregation is not per-bit sound), and parameterized
	// candidates each carry their own parameter setting.
	var pending []*Counterexample
	for _, c := range cands {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		g1 := ap1.groupByKey(c.key)
		g2 := ap2.groupByKey(c.key)
		f := addFKFormulas(groupDisagreement(g1, g2, ap1, ap2), fk)
		res := smt.Solve(smt.Problem{Formula: f, Params: specs, MaxNodes: opts.MaxNodes, Stop: p.stopFunc()})
		stats.ModelsTried++
		if res.Status != smt.Optimal && res.Status != smt.Feasible {
			if res.Status == smt.Unknown {
				stats.TimedOut = true
			}
			continue
		}
		stats.Optimal = res.Status == smt.Optimal
		var ids []int
		for v, val := range res.Assign {
			if val {
				ids = append(ids, v)
			}
		}
		sort.Ints(ids)
		ids, _ = fkClose(ids, fk)
		sub, tids := subinstanceFromIDs(p.DB, ids)
		ce := &Counterexample{DB: sub, IDs: tids, Witness: c.key, Q1: rq1, Q2: rq2}
		if opts.Parameterize {
			ce.Params = map[string]relation.Value{}
			for k, v := range p.Params {
				ce.Params[k] = v
			}
			for k, v := range res.Params {
				ce.Params[k] = floatValue(v)
			}
		} else if len(p.Params) > 0 {
			ce.Params = p.Params
		}
		pending = append(pending, ce)
	}
	var best *Counterexample
	for _, ce := range pending {
		// An expired budget rejects the remaining candidates; the no-result
		// path below then surfaces the budget error.
		if p.interrupted() != nil {
			break
		}
		if Verify(p, ce) != nil {
			continue
		}
		if best == nil || ce.Size() < best.Size() {
			best = ce
		}
	}
	stats.SolverTime = time.Since(t0)
	stats.TotalTime = time.Since(start)
	if best == nil {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: %s found no verifying counterexample", name)
	}
	stats.WitnessSize = best.Size()
	return best, stats, nil
}

// evalAggProvHaving computes aggregate provenance, using symParams for the
// symbolic HAVING translation while the inner query is evaluated under the
// full parameter binding when it needs parameters of its own.
func evalAggProvHaving(q ra.Node, db *relation.Database, symParams, fullParams map[string]relation.Value, opts engine.Options) (*aggProvResult, error) {
	res, err := evalAggProv(q, db, symParams, opts)
	if err == nil {
		return res, nil
	}
	// The inner query may reference withheld parameters; retry fully bound.
	return evalAggProv(q, db, fullParams, opts)
}

// projectedKey returns a group's non-aggregate output columns (the values
// by which its output row is identified after projection).
func projectedKey(g *aggGroup, ap *aggProvResult) relation.Tuple {
	var out relation.Tuple
	for _, c := range ap.OutCols {
		if !c.IsAgg {
			out = append(out, g.Key[c.Idx])
		}
	}
	return out
}

func otherGroup(ap1, ap2, this *aggProvResult, key relation.Tuple) *aggGroup {
	if this == ap1 {
		return ap2.groupByKey(key)
	}
	return ap1.groupByKey(key)
}

// groupDisagreement builds the Listing 2 constraint for one group key:
// presence in exactly one result, or presence in both with some compared
// aggregate value differing.
func groupDisagreement(g1, g2 *aggGroup, ap1, ap2 *aggProvResult) smt.Formula {
	p1 := smt.Formula(&smt.FConst{Val: false})
	if g1 != nil {
		p1 = g1.presence()
	}
	p2 := smt.Formula(&smt.FConst{Val: false})
	if g2 != nil {
		p2 = g2.presence()
	}
	onlyOne := smt.Or(smt.And(p1, smt.Not(p2)), smt.And(smt.Not(p1), p2))
	if g1 == nil || g2 == nil {
		return onlyOne
	}
	// Pair aggregate output columns positionally.
	var diffs []smt.Formula
	n := len(ap1.OutCols)
	if len(ap2.OutCols) < n {
		n = len(ap2.OutCols)
	}
	for i := 0; i < n; i++ {
		c1, c2 := ap1.OutCols[i], ap2.OutCols[i]
		if !c1.IsAgg || !c2.IsAgg {
			continue
		}
		diffs = append(diffs, &smt.FCmp{Op: ra.NE, L: smt.AggOp(g1.Aggs[c1.Idx]), R: smt.AggOp(g2.Aggs[c2.Idx])})
	}
	if len(diffs) == 0 {
		return onlyOne
	}
	return smt.Or(onlyOne, smt.And(p1, p2, smt.Or(diffs...)))
}

// addFKFormulas conjoins child→parent implications for every tuple variable
// reachable in the formula (Section 4.3), to a fixpoint.
func addFKFormulas(f smt.Formula, fk fkIndex) smt.Formula {
	if len(fk) == 0 {
		return f
	}
	processed := map[int]bool{}
	out := f
	frontier := smt.FormulaVars(f)
	for len(frontier) > 0 {
		var next []int
		for _, id := range frontier {
			if processed[id] {
				continue
			}
			processed[id] = true
			for _, m := range fk {
				if ps, ok := m[relation.TupleID(id)]; ok {
					kids := []*boolexpr.Expr{boolexpr.Not(boolexpr.Var(id))}
					for _, pid := range ps {
						kids = append(kids, boolexpr.Var(int(pid)))
						if !processed[int(pid)] {
							next = append(next, int(pid))
						}
					}
					out = smt.And(out, &smt.FProv{E: boolexpr.Or(kids...)})
				}
			}
		}
		frontier = next
	}
	return out
}

// ParameterizeHaving replaces constant thresholds compared against
// aggregate columns in HAVING predicates with named parameters, returning
// the rewritten query and the original parameter values. Parameter names
// are derived from the constant value so that identical thresholds in two
// queries unify (as with @numCS in Example 6).
func ParameterizeHaving(q ra.Node) (ra.Node, map[string]relation.Value) {
	spec, ok := ra.MatchTopAggregate(q)
	if !ok || len(spec.Havings) == 0 {
		return q, nil
	}
	aggNames := map[string]bool{}
	for _, a := range spec.Group.Aggs {
		aggNames[a.As] = true
	}
	orig := map[string]relation.Value{}
	var rewriteExpr func(e ra.Expr) ra.Expr
	rewriteExpr = func(e ra.Expr) ra.Expr {
		switch x := e.(type) {
		case *ra.Cmp:
			l, lAgg := x.L.(*ra.AttrRef)
			rc, rConst := x.R.(*ra.Const)
			if lAgg && rConst && aggNames[relation.BaseName(l.Name)] && rc.Val.IsNumeric() {
				name := fmt.Sprintf("p_%s", sanitize(rc.Val.String()))
				orig[name] = rc.Val
				return &ra.Cmp{Op: x.Op, L: x.L, R: &ra.Param{Name: name}}
			}
			lc, lConst := x.L.(*ra.Const)
			r, rAgg := x.R.(*ra.AttrRef)
			if lConst && rAgg && aggNames[relation.BaseName(r.Name)] && lc.Val.IsNumeric() {
				name := fmt.Sprintf("p_%s", sanitize(lc.Val.String()))
				orig[name] = lc.Val
				return &ra.Cmp{Op: x.Op, L: &ra.Param{Name: name}, R: x.R}
			}
			return x
		case *ra.And:
			kids := make([]ra.Expr, len(x.Kids))
			for i, k := range x.Kids {
				kids[i] = rewriteExpr(k)
			}
			return &ra.And{Kids: kids}
		case *ra.Or:
			kids := make([]ra.Expr, len(x.Kids))
			for i, k := range x.Kids {
				kids[i] = rewriteExpr(k)
			}
			return &ra.Or{Kids: kids}
		case *ra.Not:
			return &ra.Not{Kid: rewriteExpr(x.Kid)}
		}
		return e
	}

	// Rebuild the query with rewritten HAVING layers.
	var node ra.Node = spec.Group
	for i := len(spec.Havings) - 1; i >= 0; i-- {
		node = &ra.Select{Pred: rewriteExpr(spec.Havings[i].Pred), In: node}
	}
	if spec.Proj != nil {
		node = &ra.Project{Cols: spec.Proj.Cols, In: node}
	}
	if len(orig) == 0 {
		return q, nil
	}
	return node, orig
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	return string(out)
}

// paramSpecs derives the finite candidate domains of the parameterized
// thresholds: small values that let tiny groups pass the HAVING filter plus
// the original threshold (so the "no change" setting is always available).
func paramSpecs(names []string, orig map[string]relation.Value) []smt.ParamSpec {
	uniq := map[string]bool{}
	var specs []smt.ParamSpec
	for _, n := range names {
		if uniq[n] {
			continue
		}
		uniq[n] = true
		cands := []float64{0, 1, 2, 3}
		if v, ok := orig[n]; ok && v.IsNumeric() {
			cands = append(cands, v.AsFloat())
		}
		specs = append(specs, smt.ParamSpec{Name: n, Candidates: cands})
	}
	return specs
}

func floatValue(f float64) relation.Value {
	if f == float64(int64(f)) {
		return relation.Int(int64(f))
	}
	return relation.Float(f)
}

// AggOpt implements the heuristic Algorithm 3 (Agg-Opt): strip the
// aggregation, find a differing tuple of the pre-aggregation queries
// Q'1 − Q'2, minimize its witness with the SPJUD machinery, pick HAVING
// parameters that let the shrunken groups pass, and re-enumerate models
// until the original aggregate queries disagree on the candidate. The first
// candidate is the min-ones optimum of the witness formula.
func AggOpt(p Problem, opts AggOptions) (*Counterexample, *Stats, error) {
	stats := &Stats{Algorithm: "Agg-Opt"}
	start := time.Now()
	maxRetries := opts.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 64
	}

	// Parameterize constant HAVING thresholds so the heuristic may relax
	// them (Section 5.3.2).
	pp := p.withHavingParams()
	spec1, ok1 := ra.MatchTopAggregate(pp.Q1)
	spec2, ok2 := ra.MatchTopAggregate(pp.Q2)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("core: AggOpt requires both queries of shape π? σ* γ(Q')")
	}
	inner := pp
	inner.Q1, inner.Q2 = spec1.Inner, spec2.Inner

	qa, qb, t, err := inner.baseWitness(stats)
	if errors.Is(err, ErrQueriesAgree) {
		// The pre-aggregation queries agree; the disagreement comes from
		// grouping or HAVING alone. Fall back to the provenance-based
		// aggregate algorithm.
		ce, st, err := AggBasic(p, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: AggOpt fallback to AggBasic failed: %w", err)
		}
		// The fallback's Stats cover the whole call: Agg-Opt's own inner
		// evaluation counts as raw evaluation, and the total runs from
		// Agg-Opt's entry.
		st.Algorithm = "Agg-Opt(fallback)"
		st.RawEvalTime += stats.RawEvalTime
		st.TotalTime = time.Since(start)
		return ce, st, nil
	}
	if err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	prov, err := inner.witnessProv(&ra.Diff{L: qa, R: qb}, t)
	if err != nil {
		return nil, nil, err
	}
	stats.ProvEvalTime = time.Since(t0)

	t0 = time.Now()
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	b, counted, varToID := buildCNF(prov, fk)
	var result *Counterexample
	// The model loop stays adaptive — each candidate's acceptance decides
	// whether the solver enumerates another model, so verifying one at a
	// time (stopping at the first success) beats any batch width here.
	// Batching would not help anyway: every candidate carries its own
	// chosen HAVING parameters and query rewrites, the case the batch
	// layer's γ fallback hands back to per-candidate Verify.
	forEachWitnessModel(b, counted, varToID, maxRetries, p.solverOpts(), func(ids []int) bool {
		stats.ModelsTried++
		ids, _ = fkClose(ids, fk)
		sub, tids := subinstanceFromIDs(p.DB, ids)
		ce := &Counterexample{DB: sub, IDs: tids, Witness: t}
		ce.Q1, ce.Q2 = p.rewrites(pp)
		// Choose parameter values that let the shrunken groups pass the
		// HAVING thresholds (the paper's per-aggregate heuristic).
		ce.Params = chooseParams(pp, sub)
		if Verify(pp, ce) == nil {
			result = ce
			return true
		}
		return false
	})
	stats.SolverTime = time.Since(t0)
	stats.TotalTime = time.Since(start)
	if result == nil {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: AggOpt found no verifying counterexample within %d models", maxRetries)
	}
	stats.WitnessSize = result.Size()
	return result, stats, nil
}

// forEachWitnessModel yields up to max witness models smallest-first: first
// the min-ones optimum (minones.Minimize), then the CDCL solver's successive
// models, each blocked on the counted variables once yielded. yield returns
// true to stop; opts bound every SAT call.
func forEachWitnessModel(b *boolexpr.CNFBuilder, counted []int, varToID map[int]int, max int, opts minones.Options, yield func(ids []int) bool) {
	first := minones.Minimize(b.NumVars, b.Clauses, counted, opts)
	if first.Model == nil {
		return // infeasible, or the first solve ran out of budget
	}
	// project returns a model's tuple ids and the clause that blocks it.
	project := func(value func(v int) bool) (ids, block []int) {
		block = make([]int, 0, len(counted))
		for _, v := range counted {
			if value(v) {
				ids = append(ids, varToID[v])
				block = append(block, -v)
			} else {
				block = append(block, v)
			}
		}
		return ids, block
	}
	ids, block := project(func(v int) bool { return first.Model[v] })
	if yield(ids) {
		return
	}
	// The enumeration solver is loaded only now: over the course-explain
	// and tpch-agg workloads the first candidate verified on every pair.
	s := sat.New()
	s.MaxConflicts, s.Stop = opts.MaxConflictsPerCall, opts.Stop
	s.EnsureVars(b.NumVars)
	for _, c := range b.Clauses {
		if s.AddClause(c...) != nil {
			return
		}
	}
	for n := 1; n < max; n++ {
		if s.AddClause(block...) != nil || s.Solve() != sat.Sat {
			return
		}
		ids, block = project(s.Value)
		if yield(ids) {
			return
		}
	}
}

// chooseParams picks HAVING parameter values for a candidate subinstance:
// for each parameterized threshold it takes the smallest aggregate value
// realized by the candidate's groups, adjusted so the comparison passes
// (the COUNT/SUM/MIN/MAX/AVG heuristics of Section 5.3.2).
func chooseParams(p Problem, sub *relation.Database) map[string]relation.Value {
	out := map[string]relation.Value{}
	for k, v := range p.Params {
		out[k] = v
	}
	for _, q := range []ra.Node{p.Q1, p.Q2} {
		spec, ok := ra.MatchTopAggregate(q)
		if !ok {
			continue
		}
		// Aggregate the candidate instance without HAVING, under the
		// request budget: this runs once per solver model, so an unbudgeted
		// pass here could outlive the deadline on large candidates.
		grouped, err := engine.EvalOpts(spec.Group, sub, out, p.engineOpts())
		if err != nil || grouped.Len() == 0 {
			continue
		}
		aggPos := map[string]int{}
		for i, a := range spec.Group.Aggs {
			aggPos[a.As] = len(spec.Group.GroupCols) + i
		}
		for _, sel := range spec.Havings {
			assignParamsFromPred(sel.Pred, grouped, aggPos, out)
		}
	}
	return out
}

func assignParamsFromPred(e ra.Expr, grouped *relation.Relation, aggPos map[string]int, out map[string]relation.Value) {
	switch x := e.(type) {
	case *ra.And:
		for _, k := range x.Kids {
			assignParamsFromPred(k, grouped, aggPos, out)
		}
	case *ra.Or:
		for _, k := range x.Kids {
			assignParamsFromPred(k, grouped, aggPos, out)
		}
	case *ra.Not:
		assignParamsFromPred(x.Kid, grouped, aggPos, out)
	case *ra.Cmp:
		attr, pok := x.L.(*ra.AttrRef)
		param, qok := x.R.(*ra.Param)
		op := x.Op
		if !pok || !qok {
			param, qok = x.L.(*ra.Param)
			attr, pok = x.R.(*ra.AttrRef)
			op = op.Negate() // param op' agg  ≡  agg op param with flipped op... see below
			if !pok || !qok {
				return
			}
			// For param ⊙ agg we want agg ⊙' param with the mirrored
			// operator (e.g. p <= agg ≡ agg >= p).
			switch x.Op {
			case ra.LT:
				op = ra.GT
			case ra.LE:
				op = ra.GE
			case ra.GT:
				op = ra.LT
			case ra.GE:
				op = ra.LE
			default:
				op = x.Op
			}
		}
		pos, ok := aggPos[relation.BaseName(attr.Name)]
		if !ok || pos >= grouped.Schema.Arity() {
			return
		}
		// Smallest aggregate value across the candidate's groups.
		var best relation.Value
		for _, t := range grouped.Tuples {
			v := t[pos]
			if v.IsNull() || !v.IsNumeric() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			if c, ok := v.Compare(best); ok && c < 0 {
				best = v
			}
		}
		if best.IsNull() {
			return
		}
		val := best.AsFloat()
		switch op {
		case ra.EQ, ra.GE, ra.LE:
			out[param.Name] = floatValue(val)
		case ra.GT:
			out[param.Name] = floatValue(val - 1)
		case ra.LT:
			out[param.Name] = floatValue(val + 1)
		case ra.NE:
			out[param.Name] = floatValue(val + 1)
		}
	}
}
