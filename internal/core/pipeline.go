package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file holds the steps every algorithm of the package shares. The
// paper's algorithms all run one skeleton: evaluate Q1 and Q2 on D, pick a
// differing tuple, push its selection down, compute its provenance, add the
// foreign-key implications of Section 4.3, solve, and verify. Each step is
// written once here; the algorithms differ in how they solve.

// baseDiff is the first step of the searches that need whole differences
// (Basic, OptSigmaAll, EnumerateSmallest, Agg-Basic): one plain evaluation
// of Q1 and Q2 on D between two budget polls. It returns Q1 − Q2 and
// Q2 − Q1, or ErrQueriesAgree when both are empty, and records the
// evaluation as RawEvalTime (stats may be nil).
func (p Problem) baseDiff(stats *Stats) (d12, d21 *relation.Relation, err error) {
	if err := p.interrupted(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	differs, d12, d21, err := p.disagrees(p.DB)
	if err != nil {
		return nil, nil, err
	}
	if stats != nil {
		stats.RawEvalTime = time.Since(t0)
	}
	if !differs {
		return nil, nil, ErrQueriesAgree
	}
	if err := p.interrupted(); err != nil {
		return nil, nil, err
	}
	return d12, d21, nil
}

// baseWitness is the first step of every single-witness algorithm: the
// witness rule's tuple t, the first of Q1 − Q2, else the first of Q2 − Q1,
// with the query pair oriented so that t ∈ qa − qb. One engine.FirstDiff
// between two budget polls finds it without materializing Q2's top join or
// either difference. It returns ErrQueriesAgree when both differences are
// empty and records the evaluation as RawEvalTime (stats may be nil).
func (p Problem) baseWitness(stats *Stats) (qa, qb ra.Node, t relation.Tuple, err error) {
	if err := p.interrupted(); err != nil {
		return nil, nil, nil, err
	}
	t0 := time.Now()
	t, inQ1, err := engine.FirstDiff(p.Q1, p.Q2, p.DB, p.Params, p.engineOpts())
	if err != nil {
		return nil, nil, nil, err
	}
	if stats != nil {
		stats.RawEvalTime = time.Since(t0)
	}
	if t == nil {
		return nil, nil, nil, ErrQueriesAgree
	}
	if err := p.interrupted(); err != nil {
		return nil, nil, nil, err
	}
	if inQ1 {
		return p.Q1, p.Q2, t, nil
	}
	return p.Q2, p.Q1, t, nil
}

// firstWitness is the witness rule over differences already materialized
// (ShrinkGreedy's retained state and its subinstance loop): the first tuple
// of Q1 − Q2, else the first of Q2 − Q1, or nil when both are empty.
func firstWitness(d12, d21 *relation.Relation) relation.Tuple {
	if d12.Len() > 0 {
		return d12.Tuples[0]
	}
	if d21.Len() > 0 {
		return d21.Tuples[0]
	}
	return nil
}

// pushedProv is the provenance step of Algorithm 2: push the selection on
// t's values into q, evaluate it under the provenance semiring, and return
// t's how-provenance, or nil when q does not produce t on D.
func (p Problem) pushedProv(q ra.Node, t relation.Tuple) (*boolexpr.Expr, error) {
	return p.tupleProv(PushDownTupleSelection(q, t, p.DB), t)
}

// tupleProv evaluates the already pushed-down query pushed under the
// provenance semiring and returns t's annotation, or nil when it lacks t.
func (p Problem) tupleProv(pushed ra.Node, t relation.Tuple) (*boolexpr.Expr, error) {
	ann, err := engine.EvalProvOpts(pushed, p.DB, p.Params, p.engineOpts())
	if err != nil {
		return nil, err
	}
	i := ann.Lookup(t)
	if i < 0 {
		return nil, nil
	}
	return ann.Anns[i], nil
}

// witnessProv is pushedProv for the tuple an algorithm explains, which q
// must produce.
func (p Problem) witnessProv(q ra.Node, t relation.Tuple) (*boolexpr.Expr, error) {
	prov, err := p.pushedProv(q, t)
	if err == nil && prov == nil {
		err = fmt.Errorf("core: tuple %v missing after selection pushdown", t)
	}
	return prov, err
}

// termWitnesses is the per-term step of the Theorem 5 and Theorem 7
// procedures: the minimal witnesses of t in the monotone term q (the DNF of
// its pushed provenance, at most maxTerms minterms), or nil when q does not
// produce t on D. A counting pass rules a term out before the provenance
// pass: it costs a fraction of that pass, and most terms do not produce t.
func (p Problem) termWitnesses(q ra.Node, t relation.Tuple, maxTerms int) (boolexpr.DNF, error) {
	schema, err := ra.OutSchema(q, engine.Catalog{DB: p.DB})
	if err != nil || schema.Arity() != len(t) {
		return nil, nil // not union-compatible with t: never produces it
	}
	pushed := PushDownTupleSelection(q, t, p.DB)
	n, err := engine.CountDistinctOpts(pushed, p.DB, p.Params, p.engineOpts())
	if err != nil || n == 0 {
		return nil, err
	}
	prov, err := p.tupleProv(pushed, t)
	if err != nil || prov == nil {
		return nil, err
	}
	return boolexpr.MonotoneDNF(prov, maxTerms)
}

// fkIndex maps, for each foreign key of a problem, every child tuple to the
// parent tuples it references (relation.ForeignKey.ParentsOf). An
// explanation builds it once and passes it to every step that adds the
// implications of Section 4.3 (buildCNF, addFKFormulas) or closes a tuple
// set under them (fkClose, newFKGuard).
type fkIndex []map[relation.TupleID][]relation.TupleID

func newFKIndex(db *relation.Database, fks []relation.ForeignKey) (fkIndex, error) {
	idx := make(fkIndex, len(fks))
	for i, fk := range fks {
		m, err := fk.ParentsOf(db)
		if err != nil {
			return nil, err
		}
		idx[i] = m
	}
	return idx, nil
}

// fkClose extends a set of tuple ids with foreign-key parents, transitively
// (the Section 4.3 closure for the combinatorial algorithms; the solver-based
// algorithms encode the choice instead). A child whose parents include a
// tuple already in the set adds nothing; otherwise its first parent joins,
// and chose reports whether any such child had another parent to pick. A
// closure that never chose lies inside every constraint-valid superset of
// ids. The result is sorted and depends only on the id set, not its order:
// callers fingerprint it (idsKey) and feed it to dedup maps.
func fkClose(ids []int, fk fkIndex) (out []int, chose bool) {
	out = append([]int(nil), ids...)
	sort.Ints(out)
	in := make(map[int]bool, len(out))
	for _, id := range out {
		in[id] = true
	}
	// out grows while it is scanned, so added parents get their own parents.
	for i := 0; i < len(out); i++ {
		for _, m := range fk {
			ps := m[relation.TupleID(out[i])]
			if len(ps) == 0 || anyIn(ps, in) {
				continue
			}
			chose = chose || len(ps) > 1
			in[int(ps[0])] = true
			out = append(out, int(ps[0]))
		}
	}
	sort.Ints(out)
	return out, chose
}

func anyIn(ids []relation.TupleID, in map[int]bool) bool {
	for _, id := range ids {
		if in[int(id)] {
			return true
		}
	}
	return false
}

// finish is the verified exit of every algorithm that returns one
// counterexample: it materializes the subinstance of ids, records its size
// and the total time, and returns it only once Verify accepts it. A budget
// expiry during that verification is a budget failure, not an algorithm
// bug.
func (p Problem) finish(stats *Stats, start time.Time, ids []int, witness relation.Tuple) (*Counterexample, *Stats, error) {
	sub, tids := subinstanceFromIDs(p.DB, ids)
	ce := &Counterexample{DB: sub, IDs: tids, Witness: witness}
	stats.WitnessSize = ce.Size()
	stats.TotalTime = time.Since(start)
	if err := Verify(p, ce); err != nil {
		if errors.Is(err, ErrBudget) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: %s produced an invalid counterexample: %v", stats.Algorithm, err)
	}
	return ce, stats, nil
}

// withHavingParams returns the problem with every constant HAVING threshold
// of both queries replaced by a parameter (ParameterizeHaving) and the
// thresholds' values bound in Params. Agg-Param and Agg-Opt search and
// verify against it; the budget fields stay the caller's.
func (p Problem) withHavingParams() Problem {
	q1, o1 := ParameterizeHaving(p.Q1)
	q2, o2 := ParameterizeHaving(p.Q2)
	params := make(map[string]relation.Value, len(p.Params)+len(o1)+len(o2))
	for _, m := range []map[string]relation.Value{p.Params, o1, o2} {
		for k, v := range m {
			params[k] = v
		}
	}
	p.Q1, p.Q2, p.Params = q1, q2, params
	return p
}

// rewrites returns pp's queries, pp being p.withHavingParams(), for a
// Counterexample's Q1 and Q2 when either was rewritten, and nils otherwise:
// an answer then holds no query of its own, and readers fall back to the
// problem's.
func (p Problem) rewrites(pp Problem) (q1, q2 ra.Node) {
	if pp.Q1 == p.Q1 && pp.Q2 == p.Q2 {
		return nil, nil
	}
	return pp.Q1, pp.Q2
}
