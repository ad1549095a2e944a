package smt

import (
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/ra"
)

func v(id int) *boolexpr.Expr { return boolexpr.Var(id) }

func assignSet(ids ...int) func(int) bool {
	m := map[int]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return func(id int) bool { return m[id] }
}

func TestAggValueEval(t *testing.T) {
	avg := &AggValue{Func: ra.Avg, Terms: []AggTerm{
		{Guard: v(1), Value: 100},
		{Guard: v(2), Value: 80},
	}}
	if x, ok := avg.Eval(assignSet(1, 2)); !ok || x != 90 {
		t.Errorf("avg = %v %v", x, ok)
	}
	if x, ok := avg.Eval(assignSet(1)); !ok || x != 100 {
		t.Errorf("avg one = %v %v", x, ok)
	}
	if _, ok := avg.Eval(assignSet()); ok {
		t.Error("empty avg should be undefined")
	}

	cnt := &AggValue{Func: ra.Count, Terms: []AggTerm{{Guard: v(1), Value: 1}, {Guard: v(2), Value: 1}}}
	if x, ok := cnt.Eval(assignSet()); !ok || x != 0 {
		t.Errorf("empty count = %v %v, want 0 true", x, ok)
	}

	sum := &AggValue{Func: ra.Sum, Terms: []AggTerm{{Guard: v(1), Value: 3}, {Guard: v(2), Value: -4}}}
	if x, ok := sum.Eval(assignSet(1, 2)); !ok || x != -1 {
		t.Errorf("sum = %v", x)
	}

	mn := &AggValue{Func: ra.Min, Terms: []AggTerm{{Guard: v(1), Value: 5}, {Guard: v(2), Value: 2}}}
	if x, _ := mn.Eval(assignSet(1, 2)); x != 2 {
		t.Errorf("min = %v", x)
	}
	mx := &AggValue{Func: ra.Max, Terms: []AggTerm{{Guard: v(1), Value: 5}, {Guard: v(2), Value: 2}}}
	if x, _ := mx.Eval(assignSet(1, 2)); x != 5 {
		t.Errorf("max = %v", x)
	}
}

func TestAggValueGuardsAreExprs(t *testing.T) {
	// Guards may be conjunctions (join provenance), e.g. t1∧t4.
	a := &AggValue{Func: ra.Sum, Terms: []AggTerm{
		{Guard: boolexpr.And(v(1), v(4)), Value: 10},
		{Guard: boolexpr.And(v(1), v(5)), Value: 20},
	}}
	if x, ok := a.Eval(assignSet(1, 4)); !ok || x != 10 {
		t.Errorf("guarded sum = %v", x)
	}
	if _, ok := a.Eval(assignSet(4, 5)); ok {
		t.Error("no student tuple: undefined")
	}
}

func TestBoundsSoundness(t *testing.T) {
	// Property: for every completion of a partial assignment, the true
	// aggregate value must lie within Bounds().
	agg := &AggValue{Func: ra.Avg, Terms: []AggTerm{
		{Guard: v(1), Value: 10}, {Guard: v(2), Value: 50}, {Guard: v(3), Value: 90},
	}}
	partial := func(id int) boolexpr.TriState {
		if id == 1 {
			return boolexpr.TriTrue
		}
		return boolexpr.TriUnknown
	}
	iv := agg.Bounds(partial)
	for mask := 0; mask < 4; mask++ {
		ids := []int{1}
		if mask&1 != 0 {
			ids = append(ids, 2)
		}
		if mask&2 != 0 {
			ids = append(ids, 3)
		}
		x, ok := agg.Eval(assignSet(ids...))
		if !ok {
			continue
		}
		if x < iv.Lo-1e-9 || x > iv.Hi+1e-9 {
			t.Errorf("value %v outside bounds [%v,%v]", x, iv.Lo, iv.Hi)
		}
	}
	if iv.MayBeUndef || iv.MustBeUndef {
		t.Error("guard t1 is sure: not undefined")
	}
}

func TestFormulaConstructors(t *testing.T) {
	tr, fa := &FConst{Val: true}, &FConst{Val: false}
	if And(tr, tr).(*FConst).Val != true {
		t.Error("And(T,T)")
	}
	if And(tr, fa).(*FConst).Val != false {
		t.Error("And(T,F)")
	}
	if Or(fa, fa).(*FConst).Val != false {
		t.Error("Or(F,F)")
	}
	if Or(fa, tr).(*FConst).Val != true {
		t.Error("Or(F,T)")
	}
	if Not(tr).(*FConst).Val != false {
		t.Error("Not(T)")
	}
	p := &FProv{E: v(1)}
	if And(tr, p) != Formula(p) {
		t.Error("And(T,p) should collapse to p")
	}
	if Not(Not(p)) != Formula(p) {
		t.Error("double negation")
	}
}

func TestSolveSimpleProv(t *testing.T) {
	// t1 ∧ (t4 ∨ t5): minimum 2 tuples.
	f := &FProv{E: boolexpr.And(v(1), boolexpr.Or(v(4), v(5)))}
	r := Solve(Problem{Formula: f})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Cost != 2 {
		t.Errorf("cost = %d, want 2", r.Cost)
	}
	if !r.Assign[1] {
		t.Error("t1 must be chosen")
	}
}

func TestSolveInfeasible(t *testing.T) {
	f := And(&FProv{E: v(1)}, &FProv{E: boolexpr.Not(v(1))})
	r := Solve(Problem{Formula: f})
	if r.Status != Infeasible {
		t.Errorf("status = %v", r.Status)
	}
}

func TestSolveAggregateDifference(t *testing.T) {
	// Example 4 shape: Q1's avg (CS only: t4,t5 guarded by t1) vs Q2's avg
	// (t4,t5,t6 guarded by t1). Disagreement formula: presence XOR or value
	// difference. The optimum is {t1, t6}: group exists in Q2 only... or
	// rather both exist but differ. Check minimal cost 2.
	g1Exists := boolexpr.And(v(1), boolexpr.Or(v(4), v(5)))
	g2Exists := boolexpr.And(v(1), boolexpr.Or(v(4), v(5), v(6)))
	avg1 := &AggValue{Func: ra.Avg, Terms: []AggTerm{
		{Guard: boolexpr.And(v(1), v(4)), Value: 100},
		{Guard: boolexpr.And(v(1), v(5)), Value: 75},
	}}
	avg2 := &AggValue{Func: ra.Avg, Terms: []AggTerm{
		{Guard: boolexpr.And(v(1), v(4)), Value: 100},
		{Guard: boolexpr.And(v(1), v(5)), Value: 75},
		{Guard: boolexpr.And(v(1), v(6)), Value: 95},
	}}
	p1 := &FProv{E: g1Exists}
	p2 := &FProv{E: g2Exists}
	f := Or(
		And(p1, Not(p2)),
		And(Not(p1), p2),
		And(p1, p2, &FCmp{Op: ra.NE, L: AggOp(avg1), R: AggOp(avg2)}),
	)
	r := Solve(Problem{Formula: f})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Cost != 2 {
		t.Fatalf("cost = %d, want 2 (e.g. {t1,t6})", r.Cost)
	}
	if !r.Assign[1] || !r.Assign[6] {
		t.Errorf("expected {t1,t6}, got %v", r.Assign)
	}
	// Verify the model satisfies the formula exactly.
	if !EvalFormula(f, func(id int) bool { return r.Assign[id] }, nil) {
		t.Error("model does not satisfy formula")
	}
}

func TestSolveWithParams(t *testing.T) {
	// HAVING count >= @p with two guarded members; presence differs when
	// the parameter admits the smaller group. Minimal: 1 tuple with p=1.
	cnt1 := &AggValue{Func: ra.Count, Terms: []AggTerm{{Guard: v(1), Value: 1}}}
	cnt2 := &AggValue{Func: ra.Count, Terms: []AggTerm{{Guard: v(1), Value: 1}, {Guard: v(2), Value: 1}}}
	p1 := And(&FProv{E: v(1)}, &FCmp{Op: ra.GE, L: AggOp(cnt1), R: ParamOp("p")})
	p2 := And(&FProv{E: boolexpr.Or(v(1), v(2))}, &FCmp{Op: ra.GE, L: AggOp(cnt2), R: ParamOp("p")})
	f := Or(And(p1, Not(p2)), And(Not(p1), p2))
	r := Solve(Problem{
		Formula: f,
		Params:  []ParamSpec{{Name: "p", Candidates: []float64{1, 2, 3}}},
	})
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Cost != 1 {
		t.Fatalf("cost = %d, want 1", r.Cost)
	}
	// t2 alone with p=1: group2 count=1 passes, group1 absent. Or t1,t2
	// with p=2... minimal is t2 with p=1 or p=2? With only t2: cnt2=1,
	// exists2 true; cnt1 undefined & exists1 false. p=1 → p2 passes, p1
	// fails → disagreement with one tuple.
	if r.Params["p"] == 0 {
		t.Errorf("param not chosen: %v", r.Params)
	}
}

func TestSolveCostPruning(t *testing.T) {
	// 10 independent vars, formula requires any 1: optimum is 1 even with
	// a tight node budget (pruning makes it easy).
	kids := make([]*boolexpr.Expr, 10)
	for i := range kids {
		kids[i] = v(i + 1)
	}
	f := &FProv{E: boolexpr.Or(kids...)}
	r := Solve(Problem{Formula: f, MaxNodes: 100000})
	if r.Status != Optimal || r.Cost != 1 {
		t.Errorf("status=%v cost=%d", r.Status, r.Cost)
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	// A formula over many vars with a tiny node budget: Unknown or
	// Feasible, never a wrong Optimal claim.
	kids := make([]*boolexpr.Expr, 24)
	for i := range kids {
		kids[i] = boolexpr.And(v(2*i+1), v(2*i+2))
	}
	f := &FProv{E: boolexpr.And(boolexpr.Or(kids[:12]...), boolexpr.Or(kids[12:]...))}
	r := Solve(Problem{Formula: f, MaxNodes: 10})
	if r.Status == Optimal {
		t.Errorf("tiny budget cannot prove optimality, got %v (cost %d)", r.Status, r.Cost)
	}
}

func TestCompareIntervalsViaFormulas(t *testing.T) {
	mkCnt := func(ids ...int) *AggValue {
		a := &AggValue{Func: ra.Count}
		for _, id := range ids {
			a.Terms = append(a.Terms, AggTerm{Guard: v(id), Value: 1})
		}
		return a
	}
	for _, op := range []ra.CmpOp{ra.EQ, ra.NE, ra.LT, ra.LE, ra.GT, ra.GE} {
		f := &FCmp{Op: op, L: AggOp(mkCnt(1, 2)), R: ConstOp(1)}
		// Exhaustively: formula evaluation must match the concrete
		// comparison for all assignments.
		for mask := 0; mask < 4; mask++ {
			var ids []int
			if mask&1 != 0 {
				ids = append(ids, 1)
			}
			if mask&2 != 0 {
				ids = append(ids, 2)
			}
			cnt := float64(len(ids))
			var want bool
			switch op {
			case ra.EQ:
				want = cnt == 1
			case ra.NE:
				want = cnt != 1
			case ra.LT:
				want = cnt < 1
			case ra.LE:
				want = cnt <= 1
			case ra.GT:
				want = cnt > 1
			case ra.GE:
				want = cnt >= 1
			}
			if got := EvalFormula(f, assignSet(ids...), nil); got != want {
				t.Errorf("%s with count=%v: got %v want %v", op, cnt, got, want)
			}
		}
	}
}

func TestFormulaVarsAndParams(t *testing.T) {
	a := &AggValue{Func: ra.Sum, Terms: []AggTerm{{Guard: boolexpr.And(v(3), v(7)), Value: 1}}}
	f := And(&FProv{E: v(1)}, &FCmp{Op: ra.GE, L: AggOp(a), R: ParamOp("x")}, Not(&FProv{E: v(2)}))
	vars := FormulaVars(f)
	if len(vars) != 4 {
		t.Errorf("vars = %v", vars)
	}
	ps := FormulaParams(f)
	if len(ps) != 1 || ps[0] != "x" {
		t.Errorf("params = %v", ps)
	}
}

func TestFormulaStrings(t *testing.T) {
	f := Or(And(&FProv{E: v(1)}, Not(&FProv{E: v(2)})),
		&FCmp{Op: ra.GE, L: ParamOp("p"), R: ConstOp(3)})
	s := f.String()
	if s == "" {
		t.Error("empty String")
	}
	if (&FConst{Val: true}).String() != "⊤" {
		t.Error("const string")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" {
		t.Error("status strings")
	}
}

func TestUndefComparisonsAreFalse(t *testing.T) {
	// SQL semantics: comparing an undefined (empty-group) aggregate is
	// false, even for NE.
	avg := &AggValue{Func: ra.Avg, Terms: []AggTerm{{Guard: v(1), Value: 50}}}
	f := &FCmp{Op: ra.NE, L: AggOp(avg), R: ConstOp(10)}
	if EvalFormula(f, assignSet(), nil) {
		t.Error("NE with undefined aggregate should be false")
	}
	if !EvalFormula(f, assignSet(1), nil) {
		t.Error("50 != 10 should be true")
	}
}

// The search polls its stop hook on every node, so a hook that turns true on
// its k-th call ends the search within k nodes.
func TestSolveStopEndsSearchWithinKNodes(t *testing.T) {
	kids := make([]*boolexpr.Expr, 24)
	for i := range kids {
		kids[i] = boolexpr.And(v(2*i+1), v(2*i+2))
	}
	f := &FProv{E: boolexpr.And(boolexpr.Or(kids[:12]...), boolexpr.Or(kids[12:]...))}
	if r := Solve(Problem{Formula: f}); r.Nodes < 2048 {
		t.Fatalf("formula too easy for this test: %d nodes", r.Nodes)
	}
	for _, k := range []int64{1, 2, 5, 100, 1500} {
		var calls int64
		stop := func() bool {
			calls++
			return calls >= k
		}
		r := Solve(Problem{Formula: f, Stop: stop})
		if r.Nodes > k {
			t.Errorf("k=%d: search ran %d nodes after the stop hook fired", k, r.Nodes)
		}
		if r.Status == Optimal || r.Status == Infeasible {
			t.Errorf("k=%d: stopped search reported %v", k, r.Status)
		}
	}
}
