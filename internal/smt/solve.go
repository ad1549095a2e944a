package smt

import (
	"math"
	"sort"

	"repro/internal/boolexpr"
	"repro/internal/faults"
	"repro/internal/ra"
)

// Status reports the outcome of a Solve call.
type Status int

// Outcomes.
const (
	// Infeasible: the formula has no model under any parameter setting.
	Infeasible Status = iota
	// Optimal: the returned model provably minimizes the cost.
	Optimal
	// Feasible: a model was found but the node budget expired before the
	// search completed.
	Feasible
	// Unknown: no model found and the budget expired.
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
	}
	return "unknown"
}

// ParamSpec is an integer parameter with a finite candidate domain.
type ParamSpec struct {
	Name       string
	Candidates []float64
}

// Problem is a min-ones instance over tuple variables with aggregate atoms.
type Problem struct {
	Formula Formula
	// CostVars are the variables whose true-count is minimized. Defaults
	// to all formula variables when empty.
	CostVars []int
	// Params are parameter domains searched exhaustively; combinations are
	// capped at MaxParamCombos.
	Params []ParamSpec
	// MaxNodes bounds the total branch-and-bound nodes (0 = default 2e6).
	MaxNodes int64
	// MaxParamCombos caps the parameter grid (0 = default 512).
	MaxParamCombos int
	// Stop, when non-nil, is polled periodically during the search;
	// returning true aborts it, reporting Unknown (or Feasible with the
	// best assignment found so far). Callers use it to enforce wall-clock
	// deadlines.
	Stop func() bool
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	Assign map[int]bool
	Params map[string]float64
	Cost   int
	Nodes  int64
}

// Solve minimizes the number of cost variables set to true subject to the
// formula, searching parameter combinations exhaustively.
func Solve(p Problem) Result {
	vars := p.CostVars
	if len(vars) == 0 {
		vars = FormulaVars(p.Formula)
	}
	costSet := make(map[int]bool, len(vars))
	for _, v := range vars {
		costSet[v] = true
	}
	allVars := FormulaVars(p.Formula)
	for _, v := range allVars {
		if !costSet[v] {
			vars = append(vars, v)
		}
	}
	// Order variables by frequency of occurrence (most constrained first).
	freq := varFrequency(p.Formula)
	sort.SliceStable(vars, func(i, j int) bool { return freq[vars[i]] > freq[vars[j]] })

	maxNodes := p.MaxNodes
	if maxNodes == 0 {
		maxNodes = 2_000_000
	}
	combos := paramCombos(p.Params, p.MaxParamCombos)

	best := Result{Status: Infeasible, Cost: math.MaxInt}
	complete := true
	var nodes int64
	for _, combo := range combos {
		faults.Inject(faults.SMTSolve)
		s := &searcher{
			formula:  p.Formula,
			vars:     vars,
			costSet:  costSet,
			assign:   make(map[int]int8, len(vars)),
			params:   combo,
			maxNodes: maxNodes,
			bestCost: best.Cost,
			stop:     p.Stop,
		}
		s.nodes = nodes
		s.search(0, 0)
		nodes = s.nodes
		if s.best != nil && s.bestCost < best.Cost {
			best.Assign = s.best
			best.Cost = s.bestCost
			best.Params = combo
		}
		if s.budgetHit {
			complete = false
		}
		if nodes >= maxNodes {
			complete = false
			break
		}
		// A fired Stop hook is permanent (deadlines don't un-expire):
		// don't start the remaining parameter combos.
		if p.Stop != nil && p.Stop() {
			complete = false
			break
		}
	}
	best.Nodes = nodes
	if best.Assign == nil {
		if complete {
			best.Status = Infeasible
		} else {
			best.Status = Unknown
		}
		best.Cost = 0
		return best
	}
	if complete {
		best.Status = Optimal
	} else {
		best.Status = Feasible
	}
	return best
}

type searcher struct {
	formula   Formula
	vars      []int
	costSet   map[int]bool
	assign    map[int]int8 // -1 false, +1 true; absent = unassigned
	params    map[string]float64
	nodes     int64
	maxNodes  int64
	best      map[int]bool
	bestCost  int
	budgetHit bool
	stop      func() bool
}

func (s *searcher) triAssign(v int) boolexpr.TriState {
	switch s.assign[v] {
	case 1:
		return boolexpr.TriTrue
	case -1:
		return boolexpr.TriFalse
	}
	return boolexpr.TriUnknown
}

func (s *searcher) search(i, cost int) {
	if s.nodes >= s.maxNodes {
		s.budgetHit = true
		return
	}
	// Poll the caller's stop hook on every node: a node re-evaluates the
	// whole formula, which costs far more than the poll (same
	// Unknown/Feasible reporting as the node budget, so deadline aborts are
	// never mistaken for infeasibility proofs).
	if s.stop != nil && s.stop() {
		s.budgetHit = true
		return
	}
	s.nodes++
	if cost >= s.bestCost {
		return
	}
	switch evalFormulaTri(s.formula, s.triAssign, s.params) {
	case boolexpr.TriFalse:
		return
	case boolexpr.TriTrue:
		// Any completion works; all-false completion has cost `cost`.
		s.record(cost)
		return
	}
	if i >= len(s.vars) {
		// Fully assigned yet still Unknown should not happen; treat as
		// unsatisfied to stay sound.
		return
	}
	v := s.vars[i]
	// Prefer false (cheaper) first.
	s.assign[v] = -1
	s.search(i+1, cost)
	s.assign[v] = 1
	nc := cost
	if s.costSet[v] {
		nc++
	}
	s.search(i+1, nc)
	delete(s.assign, v)
}

func (s *searcher) record(cost int) {
	if cost >= s.bestCost {
		return
	}
	m := make(map[int]bool, len(s.vars))
	for _, v := range s.vars {
		m[v] = s.assign[v] == 1
	}
	s.best = m
	s.bestCost = cost
}

// evalFormulaTri evaluates the formula under a partial assignment.
func evalFormulaTri(f Formula, assign func(int) boolexpr.TriState, params map[string]float64) boolexpr.TriState {
	switch x := f.(type) {
	case *FConst:
		if x.Val {
			return boolexpr.TriTrue
		}
		return boolexpr.TriFalse
	case *FProv:
		return x.E.EvalTri(assign)
	case *FCmp:
		return evalCmpTri(x, assign, params)
	case *FAnd:
		r := boolexpr.TriTrue
		for _, k := range x.Kids {
			v := evalFormulaTri(k, assign, params)
			if v == boolexpr.TriFalse {
				return boolexpr.TriFalse
			}
			if v == boolexpr.TriUnknown {
				r = boolexpr.TriUnknown
			}
		}
		return r
	case *FOr:
		r := boolexpr.TriFalse
		for _, k := range x.Kids {
			v := evalFormulaTri(k, assign, params)
			if v == boolexpr.TriTrue {
				return boolexpr.TriTrue
			}
			if v == boolexpr.TriUnknown {
				r = boolexpr.TriUnknown
			}
		}
		return r
	case *FNot:
		return boolexpr.Not3(evalFormulaTri(x.Kid, assign, params))
	}
	return boolexpr.TriUnknown
}

func operandInterval(o Operand, assign func(int) boolexpr.TriState, params map[string]float64) Interval {
	switch o.Kind {
	case OpConst:
		return Interval{Lo: o.Const, Hi: o.Const}
	case OpParam:
		v, ok := params[o.Param]
		if !ok {
			// Unbound parameter: unconstrained value.
			return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		}
		return Interval{Lo: v, Hi: v}
	case OpAgg:
		return o.Agg.Bounds(assign)
	}
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// evalCmpTri compares two operand intervals in three-valued logic. An
// undefined aggregate (empty group, NULL) makes any comparison false, per
// SQL semantics.
func evalCmpTri(c *FCmp, assign func(int) boolexpr.TriState, params map[string]float64) boolexpr.TriState {
	li := operandInterval(c.L, assign, params)
	ri := operandInterval(c.R, assign, params)
	if li.MustBeUndef || ri.MustBeUndef {
		return boolexpr.TriFalse
	}
	v := compareIntervals(c.Op, li, ri)
	if (li.MayBeUndef || ri.MayBeUndef) && v == boolexpr.TriTrue {
		// Could still become undefined → false.
		return boolexpr.TriUnknown
	}
	return v
}

const eps = 1e-9

func compareIntervals(op ra.CmpOp, l, r Interval) boolexpr.TriState {
	switch op {
	case ra.EQ:
		if l.Lo == l.Hi && r.Lo == r.Hi {
			if approxEq(l.Lo, r.Lo) {
				return boolexpr.TriTrue
			}
			return boolexpr.TriFalse
		}
		if l.Hi < r.Lo-eps || r.Hi < l.Lo-eps {
			return boolexpr.TriFalse
		}
		return boolexpr.TriUnknown
	case ra.NE:
		return boolexpr.Not3(compareIntervals(ra.EQ, l, r))
	case ra.LT:
		if l.Hi < r.Lo-eps {
			return boolexpr.TriTrue
		}
		if l.Lo >= r.Hi-eps {
			return boolexpr.TriFalse
		}
		return boolexpr.TriUnknown
	case ra.LE:
		if l.Hi <= r.Lo+eps {
			return boolexpr.TriTrue
		}
		if l.Lo > r.Hi+eps {
			return boolexpr.TriFalse
		}
		return boolexpr.TriUnknown
	case ra.GT:
		return compareIntervals(ra.LT, r, l)
	case ra.GE:
		return compareIntervals(ra.LE, r, l)
	}
	return boolexpr.TriUnknown
}

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

// EvalFormula evaluates the formula exactly under a full assignment and
// parameter values. It is used to verify candidate counterexamples.
func EvalFormula(f Formula, assign func(int) bool, params map[string]float64) bool {
	tri := evalFormulaTri(f, func(v int) boolexpr.TriState {
		if assign(v) {
			return boolexpr.TriTrue
		}
		return boolexpr.TriFalse
	}, params)
	return tri == boolexpr.TriTrue
}

func varFrequency(f Formula) map[int]int {
	freq := map[int]int{}
	var walk func(Formula)
	count := func(e *boolexpr.Expr) {
		for _, v := range e.Vars() {
			freq[v]++
		}
	}
	walk = func(g Formula) {
		switch x := g.(type) {
		case *FProv:
			count(x.E)
		case *FCmp:
			for _, o := range []Operand{x.L, x.R} {
				if o.Kind == OpAgg {
					for _, t := range o.Agg.Terms {
						count(t.Guard)
					}
				}
			}
		case *FAnd:
			for _, k := range x.Kids {
				walk(k)
			}
		case *FOr:
			for _, k := range x.Kids {
				walk(k)
			}
		case *FNot:
			walk(x.Kid)
		}
	}
	walk(f)
	return freq
}

func paramCombos(specs []ParamSpec, cap int) []map[string]float64 {
	if cap == 0 {
		cap = 512
	}
	combos := []map[string]float64{{}}
	for _, spec := range specs {
		cands := spec.Candidates
		var next []map[string]float64
		for _, c := range combos {
			for _, v := range cands {
				m := make(map[string]float64, len(c)+1)
				for k, x := range c {
					m[k] = x
				}
				m[spec.Name] = v
				next = append(next, m)
				if len(next) >= cap {
					break
				}
			}
			if len(next) >= cap {
				break
			}
		}
		combos = next
	}
	return combos
}
