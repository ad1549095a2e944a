// Package minones solves the min-ones satisfiability problem of Section 4
// of the paper: given a Boolean formula in CNF and a set of counted
// variables, find a satisfying assignment with the fewest counted variables
// set to true.
//
// Two strategies mirror the paper's experiments (Figure 5):
//
//   - Minimize is the "Opt" strategy: it plays the role of the Z3/νZ
//     optimizing solver, layering an incremental totalizer cardinality
//     bound over the CDCL solver and descending until unsatisfiability.
//   - Enumerate is the "Naive-M" strategy of Algorithm 1 (Basic): it asks
//     the SAT solver for up to M models, blocking each counted projection,
//     and keeps the smallest.
package minones

import (
	"sort"

	"repro/internal/sat"
)

// Status reports the outcome of a minimization or enumeration.
type Status int

// Outcomes.
const (
	// Infeasible means the formula provably has no model at all.
	Infeasible Status = iota
	// Optimal means the returned model provably minimizes the counted ones.
	Optimal
	// Feasible means a model was found but optimality was not proven
	// within the configured budget.
	Feasible
	// Unknown means the conflict budget was exhausted before any model was
	// found or unsatisfiability was proven. Unlike Infeasible, the formula
	// may well have models; callers must not report it as unsatisfiable.
	Unknown
)

func (s Status) String() string {
	switch s {
	case Infeasible:
		return "infeasible"
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Unknown:
		return "unknown"
	}
	return "?"
}

// Model maps external SAT variables to truth values.
type Model map[int]bool

// Count returns the number of counted variables true in the model.
func (m Model) Count(counted []int) int {
	n := 0
	for _, v := range counted {
		if m[v] {
			n++
		}
	}
	return n
}

// Options configure the solvers.
type Options struct {
	// MaxConflictsPerCall bounds each SAT call; 0 means unbounded.
	MaxConflictsPerCall int64
	// Stop, when non-nil, is polled by the underlying SAT solver; returning
	// true aborts the in-flight call, which then reports Unknown (or the
	// best model found so far, for the iterative strategies). Callers use it
	// to enforce wall-clock deadlines.
	Stop func() bool
}

// newSolver builds a SAT solver configured with the options' budgets.
func newSolver(opt Options) *sat.Solver {
	s := sat.New()
	s.MaxConflicts = opt.MaxConflictsPerCall
	s.Stop = opt.Stop
	return s
}

// Result is the outcome of Minimize or Enumerate.
type Result struct {
	Status Status
	// Model is the best model found (restricted to all allocated vars).
	Model Model
	// Cost is the number of counted variables true in Model.
	Cost int
	// ModelsTried counts SAT models examined.
	ModelsTried int
}

// Minimize finds a model of the clauses minimizing the number of counted
// variables set to true (the Opt strategy). numVars must cover every
// variable in clauses and counted.
func Minimize(numVars int, clauses [][]int, counted []int, opt Options) Result {
	s := newSolver(opt)
	s.EnsureVars(numVars)
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			return Result{Status: Infeasible}
		}
	}
	st := s.Solve()
	if st == sat.Unsat {
		return Result{Status: Infeasible}
	}
	if st == sat.Unknown {
		return Result{Status: Unknown}
	}
	best := snapshot(s, numVars)
	bestCost := best.Count(counted)
	tried := 1

	if bestCost > 0 && len(counted) > 1 {
		outs := addTotalizer(s, counted, bestCost)
		for bestCost > 0 {
			// Require fewer than bestCost counted ones: outs[k-1] means
			// "at least k true", so forbid outs[bestCost-1].
			if err := s.AddClause(-outs[bestCost-1]); err != nil {
				return Result{Status: Optimal, Model: best, Cost: bestCost, ModelsTried: tried}
			}
			st = s.Solve()
			if st == sat.Unsat {
				return Result{Status: Optimal, Model: best, Cost: bestCost, ModelsTried: tried}
			}
			if st == sat.Unknown {
				return Result{Status: Feasible, Model: best, Cost: bestCost, ModelsTried: tried}
			}
			tried++
			best = snapshot(s, numVars)
			bestCost = best.Count(counted)
		}
	} else if bestCost == 1 && len(counted) == 1 {
		if err := s.AddClause(-counted[0]); err == nil && s.Solve() == sat.Sat {
			best = snapshot(s, numVars)
			bestCost = 0
			tried++
		}
	}
	return Result{Status: Optimal, Model: best, Cost: bestCost, ModelsTried: tried}
}

// Enumerate implements the Naive-M strategy: find up to maxModels models,
// blocking each projection onto the counted variables, and return the one
// with the fewest counted trues. Status is Optimal when enumeration
// exhausted all counted projections before hitting maxModels.
func Enumerate(numVars int, clauses [][]int, counted []int, maxModels int, opt Options) Result {
	s := newSolver(opt)
	s.EnsureVars(numVars)
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			return Result{Status: Infeasible}
		}
	}
	var best Model
	bestCost := 0
	tried := 0
	for tried < maxModels {
		st := s.Solve()
		if st == sat.Unsat {
			if best == nil {
				return Result{Status: Infeasible}
			}
			return Result{Status: Optimal, Model: best, Cost: bestCost, ModelsTried: tried}
		}
		if st == sat.Unknown {
			break
		}
		tried++
		m := snapshot(s, numVars)
		c := m.Count(counted)
		if best == nil || c < bestCost {
			best, bestCost = m, c
		}
		// Block this projection onto the counted variables.
		block := make([]int, 0, len(counted))
		for _, v := range counted {
			if m[v] {
				block = append(block, -v)
			} else {
				block = append(block, v)
			}
		}
		if len(block) == 0 {
			break
		}
		if err := s.AddClause(block...); err != nil {
			return Result{Status: Optimal, Model: best, Cost: bestCost, ModelsTried: tried}
		}
	}
	if best == nil {
		// The loop exited without a model and without an unsatisfiability
		// proof (conflict budget exhausted, or maxModels <= 0): the formula's
		// status is genuinely undetermined.
		return Result{Status: Unknown, ModelsTried: tried}
	}
	return Result{Status: Feasible, Model: best, Cost: bestCost, ModelsTried: tried}
}

// EnumerateAtCost enumerates up to maxModels distinct counted-projections
// of models whose counted cost is exactly `cost` (which should be the known
// optimum: the totalizer bound makes the solver reject anything larger, and
// nothing smaller exists if cost is optimal).
func EnumerateAtCost(numVars int, clauses [][]int, counted []int, cost, maxModels int, opt Options) []Model {
	s := newSolver(opt)
	s.EnsureVars(numVars)
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			return nil
		}
	}
	if cost < len(counted) && len(counted) > 1 {
		outs := addTotalizer(s, counted, cost+1)
		if cost < len(outs) {
			// Forbid "at least cost+1 true".
			if err := s.AddClause(-outs[cost]); err != nil {
				return nil
			}
		}
	}
	var out []Model
	for len(out) < maxModels {
		if s.Solve() != sat.Sat {
			return out
		}
		m := snapshot(s, numVars)
		if m.Count(counted) == cost {
			out = append(out, m)
		}
		block := make([]int, 0, len(counted))
		for _, v := range counted {
			if m[v] {
				block = append(block, -v)
			} else {
				block = append(block, v)
			}
		}
		if len(block) == 0 || s.AddClause(block...) != nil {
			return out
		}
	}
	return out
}

func snapshot(s *sat.Solver, numVars int) Model {
	m := make(Model, numVars)
	for v := 1; v <= numVars; v++ {
		m[v] = s.Value(v)
	}
	return m
}

// addTotalizer builds a totalizer (Bailleux–Boudaoud) over the given
// variables, with its outputs capped at k: it returns outs (len ≤ k) where
// outs[j-1] is implied whenever at least j of the inputs are true. Only the
// input→output direction is encoded, which suffices for at-most-(j-1)
// enforcement via unit clauses ¬outs[j-1]. The cap keeps the encoding at
// O(n·k) clauses instead of O(n²): the descents only ever forbid counts up
// to the first model's cost.
func addTotalizer(s *sat.Solver, vars []int, k int) []int {
	lits := make([]int, len(vars))
	copy(lits, vars)
	sort.Ints(lits)
	return buildTot(s, lits, k)
}

func buildTot(s *sat.Solver, lits []int, k int) []int {
	if len(lits) == 1 {
		return []int{lits[0]}
	}
	mid := len(lits) / 2
	a := buildTot(s, lits[:mid], k)
	b := buildTot(s, lits[mid:], k)
	n := min(len(a)+len(b), k)
	out := make([]int, n)
	for i := range out {
		out[i] = s.NewVar()
	}
	// a_i ∧ b_j → out_{i+j} for 1 <= i+j <= n, with a_0 = b_0 = true
	// implicit. Sums beyond the cap need no clause of their own: they
	// imply a pair with i+j = n, which already forces out_n.
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b) && i+j <= n; j++ {
			if i+j == 0 {
				continue
			}
			clause := make([]int, 0, 3)
			if i > 0 {
				clause = append(clause, -a[i-1])
			}
			if j > 0 {
				clause = append(clause, -b[j-1])
			}
			clause = append(clause, out[i+j-1])
			// Ignoring the error is safe: the database cannot become
			// inconsistent from implication clauses over fresh variables.
			_ = s.AddClause(clause...)
		}
	}
	return out
}
