package core

import (
	"fmt"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/minones"
	"repro/internal/pool"
	"repro/internal/ra"
	"repro/internal/relation"
)

// DefaultDelta is the default model budget Δ of Algorithm 1.
const DefaultDelta = 128

// buildCNF encodes the how-provenance of the chosen tuple plus the
// foreign-key implications of Section 4.3 into CNF. It returns the builder,
// the SAT variables corresponding to base tuples (the counted variables of
// the min-ones objective), and the mapping back to tuple identifiers.
func buildCNF(prov *boolexpr.Expr, fk fkIndex) (*boolexpr.CNFBuilder, []int, map[int]int) {
	b := boolexpr.NewCNFBuilder()
	b.Assert(prov)

	// Foreign keys: a kept child tuple requires (one of) its parents,
	// transitively. Adding implications can allocate new parent variables,
	// so iterate to a fixpoint.
	if len(fk) > 0 {
		processed := map[int]bool{}
		//lint:budgeted monotone fixpoint: each pass marks >=1 unprocessed base var processed, bounded by the CNF's variable count
		for {
			var pending []int
			for _, sv := range b.BaseVars() {
				id, _ := b.ExprVar(sv)
				if !processed[id] {
					pending = append(pending, id)
				}
			}
			if len(pending) == 0 {
				break
			}
			for _, id := range pending {
				processed[id] = true
				for _, m := range fk {
					if parents, ok := m[relation.TupleID(id)]; ok {
						ps := make([]int, len(parents))
						for i, p := range parents {
							ps[i] = int(p)
						}
						b.AssertImplies(id, ps)
					}
				}
			}
		}
	}

	counted := b.BaseVars()
	varToID := make(map[int]int, len(counted))
	for _, sv := range counted {
		id, _ := b.ExprVar(sv)
		varToID[sv] = id
	}
	return b, counted, varToID
}

func modelToIDs(m minones.Model, counted []int, varToID map[int]int) []int {
	var ids []int
	for _, sv := range counted {
		if m[sv] {
			ids = append(ids, varToID[sv])
		}
	}
	return ids
}

// provOfDiffTuples evaluates Q_a − Q_b with provenance annotation and
// returns, for each tuple of the plain difference, its how-provenance.
func provOfDiffTuples(qa, qb ra.Node, diff *relation.Relation, p Problem) ([]relation.Tuple, []*boolexpr.Expr, error) {
	if diff.Len() == 0 {
		return nil, nil, nil
	}
	ann, err := engine.EvalProvOpts(&ra.Diff{L: qa, R: qb}, p.DB, p.Params, p.engineOpts())
	if err != nil {
		return nil, nil, err
	}
	var tuples []relation.Tuple
	var provs []*boolexpr.Expr
	for _, t := range diff.Tuples {
		i := ann.Lookup(t)
		if i < 0 {
			return nil, nil, fmt.Errorf("core: difference tuple %v missing from annotated result", t)
		}
		tuples = append(tuples, t)
		provs = append(provs, ann.Anns[i])
	}
	return tuples, provs, nil
}

// Basic implements Algorithm 1 (the SAT-solver-based approach to SCP): for
// every tuple in the symmetric difference of the query results, enumerate up
// to delta models of its how-provenance with a SAT solver, and return the
// globally smallest witness found.
func Basic(p Problem, delta int) (*Counterexample, *Stats, error) {
	if delta <= 0 {
		delta = DefaultDelta
	}
	stats := &Stats{Algorithm: "Basic"}
	start := time.Now()
	d12, d21, err := p.baseDiff(stats)
	if err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	tuples, provs, err := provOfDiffTuples(p.Q1, p.Q2, d12, p)
	if err != nil {
		return nil, nil, err
	}
	tuples2, provs2, err := provOfDiffTuples(p.Q2, p.Q1, d21, p)
	if err != nil {
		return nil, nil, err
	}
	tuples = append(tuples, tuples2...)
	provs = append(provs, provs2...)
	stats.ProvEvalTime = time.Since(t0)

	// Fan the per-provenance SAT solves out over the worker pool: each
	// iteration encodes and solves its own formula against the shared
	// read-only database and FK index. Results land in per-index slots and
	// the best-witness reduction below runs in index order, so the chosen
	// counterexample matches the serial loop's exactly. SolverTime is
	// accumulated per task and merged (the same convention as OptSigmaAll):
	// it reports aggregate solver work across workers and may exceed the
	// wall-clock TotalTime when the pool is parallel.
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	type solveResult struct {
		ids         []int
		found       bool
		unknown     bool
		modelsTried int
		solve       time.Duration
	}
	results := make([]solveResult, len(provs))
	err = pool.ForEach(pool.DefaultWorkers, len(provs), func(i int) error {
		if err := p.interrupted(); err != nil {
			return err
		}
		t0 := time.Now()
		b, counted, varToID := buildCNF(provs[i], fk)
		r := minones.Enumerate(b.NumVars, b.Clauses, counted, delta, p.solverOpts())
		res := &results[i]
		res.solve = time.Since(t0)
		res.modelsTried = r.ModelsTried
		switch r.Status {
		case minones.Infeasible:
			// Proven unsatisfiable: this tuple has no witness.
		case minones.Unknown:
			// Budget exhausted before any model: not proven unsatisfiable.
			res.unknown = true
		default:
			res.ids = modelToIDs(r.Model, counted, varToID)
			res.found = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Pick the winner by id-set size before materializing any database:
	// the ids are distinct (one per counted SAT variable), so len(res.ids)
	// is the subinstance size and only the chosen candidate pays for
	// construction.
	bestIdx := -1
	unknowns := 0
	for i, res := range results {
		stats.ModelsTried += res.modelsTried
		stats.SolverTime += res.solve
		if res.unknown {
			unknowns++
		}
		if !res.found {
			continue
		}
		if bestIdx < 0 || len(res.ids) < len(results[bestIdx].ids) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		if unknowns > 0 {
			return nil, nil, fmt.Errorf("core: solver budget exhausted on %d witness formulas before any model was found", unknowns)
		}
		return nil, nil, fmt.Errorf("core: no satisfiable witness found (unexpected for a valid instance)")
	}
	return p.finish(stats, start, results[bestIdx].ids, tuples[bestIdx])
}

// OptSigma implements Algorithm 2 (the Optσ algorithm for SWP): pick one
// tuple t from Q1(D)\Q2(D) (or the reverse), push the selection on t's
// values down the tree of Q1 − Q2, compute the provenance of t only, and
// minimize the number of true variables with the optimizing solver.
func OptSigma(p Problem) (*Counterexample, *Stats, error) {
	stats := &Stats{Algorithm: "OptSigma"}
	start := time.Now()
	qa, qb, t, err := p.baseWitness(stats)
	if err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	prov, err := p.witnessProv(&ra.Diff{L: qa, R: qb}, t)
	if err != nil {
		return nil, nil, err
	}
	stats.ProvEvalTime = time.Since(t0)
	if err := p.interrupted(); err != nil {
		return nil, nil, err
	}

	t0 = time.Now()
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	b, counted, varToID := buildCNF(prov, fk)
	r := minones.Minimize(b.NumVars, b.Clauses, counted, p.solverOpts())
	stats.SolverTime = time.Since(t0)
	stats.ModelsTried = r.ModelsTried
	stats.Optimal = r.Status == minones.Optimal
	if r.Status == minones.Infeasible {
		return nil, nil, fmt.Errorf("core: witness formula unsatisfiable (unexpected)")
	}
	if r.Status == minones.Unknown {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: solver budget exhausted before any model of the witness formula was found")
	}
	return p.finish(stats, start, modelToIDs(r.Model, counted, varToID), t)
}

// OptSigmaAll solves SCP exactly with the optimizing solver: it minimizes
// the witness of every tuple in the symmetric difference (each with
// selection pushdown) and returns the global optimum. This is the
// "solver-opt-all" series of Figure 4 — more expensive than OptSigma but,
// unlike it, guaranteed to reach the smallest counterexample overall. Stats
// report Optimal when every tuple's minimization was proven.
func OptSigmaAll(p Problem) (*Counterexample, *Stats, error) {
	stats := &Stats{Algorithm: "OptSigmaAll"}
	start := time.Now()
	d12, d21, err := p.baseDiff(stats)
	if err != nil {
		return nil, nil, err
	}
	// Flatten the per-side, per-tuple iteration space and fan it out over
	// the worker pool: every task pushes its tuple's selection down,
	// evaluates provenance, and runs its own optimizing solver against the
	// shared read-only database and FK index. ProvEvalTime/SolverTime are
	// accumulated per task and merged, so they report aggregate work across
	// workers and may exceed the wall-clock TotalTime when the pool is
	// parallel.
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	type task struct {
		q ra.Node
		t relation.Tuple
	}
	var tasks []task
	for _, s := range []struct {
		q    ra.Node
		diff *relation.Relation
	}{{&ra.Diff{L: p.Q1, R: p.Q2}, d12}, {&ra.Diff{L: p.Q2, R: p.Q1}, d21}} {
		for _, t := range s.diff.Tuples {
			tasks = append(tasks, task{s.q, t})
		}
	}
	type solveResult struct {
		ids         []int
		found       bool
		status      minones.Status
		modelsTried int
		prov, solve time.Duration
	}
	results := make([]solveResult, len(tasks))
	err = pool.ForEach(pool.DefaultWorkers, len(tasks), func(i int) error {
		if err := p.interrupted(); err != nil {
			return err
		}
		tk := tasks[i]
		res := &results[i]
		res.status = minones.Infeasible
		t0 := time.Now()
		prov, err := p.pushedProv(tk.q, tk.t)
		res.prov = time.Since(t0)
		if err != nil || prov == nil {
			return err
		}
		t0 = time.Now()
		b, counted, varToID := buildCNF(prov, fk)
		r := minones.Minimize(b.NumVars, b.Clauses, counted, p.solverOpts())
		res.solve = time.Since(t0)
		res.modelsTried = r.ModelsTried
		res.status = r.Status
		if r.Status == minones.Optimal || r.Status == minones.Feasible {
			res.ids = modelToIDs(r.Model, counted, varToID)
			res.found = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// As in Basic: choose by id-set size first, build one database.
	bestIdx := -1
	stats.Optimal = true
	for i, res := range results {
		stats.ProvEvalTime += res.prov
		stats.SolverTime += res.solve
		stats.ModelsTried += res.modelsTried
		if res.status != minones.Optimal && res.status != minones.Infeasible {
			stats.Optimal = false
		}
		if !res.found {
			continue
		}
		if bestIdx < 0 || len(res.ids) < len(results[bestIdx].ids) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: no satisfiable witness found")
	}
	return p.finish(stats, start, results[bestIdx].ids, tasks[bestIdx].t)
}

// SolveWitnessStrategy exposes the Figure 5 experiment's strategies on a
// single witness formula: strategy "opt" uses the optimizing solver,
// "naive-M" enumerates up to M models. It returns the witness size and the
// models tried.
func SolveWitnessStrategy(p Problem, strategy string, m int) (int, int, error) {
	qa, qb, t, err := p.baseWitness(nil)
	if err != nil {
		return 0, 0, err
	}
	prov, err := p.witnessProv(&ra.Diff{L: qa, R: qb}, t)
	if err != nil {
		return 0, 0, err
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return 0, 0, err
	}
	b, counted, _ := buildCNF(prov, fk)
	var r minones.Result
	if strategy == "opt" {
		r = minones.Minimize(b.NumVars, b.Clauses, counted, p.solverOpts())
	} else {
		r = minones.Enumerate(b.NumVars, b.Clauses, counted, m, p.solverOpts())
	}
	if r.Status == minones.Infeasible {
		return 0, 0, fmt.Errorf("core: witness formula unsatisfiable")
	}
	if r.Status == minones.Unknown {
		return 0, 0, fmt.Errorf("core: solver budget exhausted before any model was found")
	}
	return r.Cost, r.ModelsTried, nil
}
