package boolexpr

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func assignFrom(m map[int]bool) func(int) bool {
	return func(id int) bool { return m[id] }
}

func TestConstructorsSimplify(t *testing.T) {
	a, b := Var(1), Var(2)
	if And() != True() {
		t.Error("empty And should be True")
	}
	if Or() != False() {
		t.Error("empty Or should be False")
	}
	if And(a) != a || Or(b) != b {
		t.Error("single-child And/Or should collapse")
	}
	if And(a, False()) != False() {
		t.Error("And with False should be False")
	}
	if Or(a, True()) != True() {
		t.Error("Or with True should be True")
	}
	if Not(Not(a)) != a {
		t.Error("double negation should collapse")
	}
	if Not(True()) != False() || Not(False()) != True() {
		t.Error("constant negation")
	}
	// Flattening.
	e := And(And(a, b), Var(3))
	if e.Op != OpAnd || len(e.Kids) != 3 {
		t.Errorf("And flattening failed: %v", e)
	}
}

func TestEval(t *testing.T) {
	// The running example: Prv(r2) = t1·(t4 + t5)
	e := And(Var(1), Or(Var(4), Var(5)))
	cases := []struct {
		m    map[int]bool
		want bool
	}{
		{map[int]bool{1: true, 4: true}, true},
		{map[int]bool{1: true, 5: true}, true},
		{map[int]bool{1: true}, false},
		{map[int]bool{4: true, 5: true}, false},
	}
	for _, c := range cases {
		if got := e.Eval(assignFrom(c.m)); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestEvalWithNegation(t *testing.T) {
	// Example 2.1: Prv_{Q2-Q1}(r2) = φ1 · ¬(φ1 · ¬φ2) with
	// φ1 = t1(t4+t5), φ2 = t1 t4 t5 — simplifies to t1 t4 t5.
	phi1 := And(Var(1), Or(Var(4), Var(5)))
	phi2 := And(Var(1), Var(4), Var(5))
	e := And(phi1, Not(And(phi1, Not(phi2))))
	// Should be equivalent to t1 ∧ t4 ∧ t5 on all assignments.
	want := And(Var(1), Var(4), Var(5))
	for mask := 0; mask < 8; mask++ {
		m := map[int]bool{1: mask&1 != 0, 4: mask&2 != 0, 5: mask&4 != 0}
		if e.Eval(assignFrom(m)) != want.Eval(assignFrom(m)) {
			t.Errorf("mismatch at %v", m)
		}
	}
}

func TestVarsAndSize(t *testing.T) {
	e := And(Var(3), Or(Var(1), Var(3)), Not(Var(7)))
	vars := e.Vars()
	want := []int{1, 3, 7}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("Vars = %v, want %v", vars, want)
		}
	}
	if e.Size() == 0 {
		t.Error("Size should be positive")
	}
}

func TestIsMonotone(t *testing.T) {
	if !And(Var(1), Or(Var(2), Var(3))).IsMonotone() {
		t.Error("positive expr should be monotone")
	}
	if And(Var(1), Not(Var(2))).IsMonotone() {
		t.Error("negated expr is not monotone")
	}
}

func TestMonotoneDNF(t *testing.T) {
	// t1·(t4 + t5) => {t1,t4}, {t1,t5}
	e := And(Var(1), Or(Var(4), Var(5)))
	d, err := MonotoneDNF(e, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Fatalf("DNF = %v", d)
	}
	sm := d.Smallest()
	if len(sm) != 2 {
		t.Errorf("Smallest = %v", sm)
	}
}

func TestMonotoneDNFAbsorption(t *testing.T) {
	// a + a·b should absorb to a.
	e := Or(Var(1), And(Var(1), Var(2)))
	d, err := MonotoneDNF(e, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || len(d[0]) != 1 || d[0][0] != 1 {
		t.Errorf("absorption failed: %v", d)
	}
}

func TestMonotoneDNFRejectsNegation(t *testing.T) {
	if _, err := MonotoneDNF(Not(Var(1)), 10); err == nil {
		t.Error("negation should be rejected")
	}
}

func TestMonotoneDNFBudget(t *testing.T) {
	// (a1+b1)(a2+b2)...(an+bn) has 2^n minterms.
	var kids []*Expr
	for i := 0; i < 20; i++ {
		kids = append(kids, Or(Var(2*i), Var(2*i+1)))
	}
	if _, err := MonotoneDNF(And(kids...), 100); !errors.Is(err, ErrDNFTooLarge) {
		t.Errorf("expected ErrDNFTooLarge, got %v", err)
	}
}

func TestMonotoneDNFEquivalenceProperty(t *testing.T) {
	// DNF must be logically equivalent to the original expression.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		e := randomMonotone(rng, 3, 6)
		d, err := MonotoneDNF(e, 100000)
		if err != nil {
			continue
		}
		for mask := 0; mask < 64; mask++ {
			assign := func(id int) bool { return mask&(1<<id) != 0 }
			dnfVal := false
			for _, m := range d {
				all := true
				for _, v := range m {
					if !assign(v) {
						all = false
						break
					}
				}
				if all {
					dnfVal = true
					break
				}
			}
			if e.Eval(assign) != dnfVal {
				t.Fatalf("trial %d: DNF not equivalent at mask %b\nexpr=%v\ndnf=%v", trial, mask, e, d)
			}
		}
	}
}

func randomMonotone(rng *rand.Rand, depth, nvars int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return Var(rng.Intn(nvars))
	}
	n := 2 + rng.Intn(2)
	kids := make([]*Expr, n)
	for i := range kids {
		kids[i] = randomMonotone(rng, depth-1, nvars)
	}
	if rng.Intn(2) == 0 {
		return And(kids...)
	}
	return Or(kids...)
}

func TestEvalTri(t *testing.T) {
	e := And(Var(1), Or(Var(2), Var(3)))
	tri := func(m map[int]TriState) TriState {
		return e.EvalTri(func(id int) TriState { return m[id] })
	}
	if got := tri(map[int]TriState{1: TriFalse}); got != TriFalse {
		t.Errorf("t1=false should decide False, got %v", got)
	}
	if got := tri(map[int]TriState{1: TriTrue, 2: TriTrue}); got != TriTrue {
		t.Errorf("t1,t2 true should decide True, got %v", got)
	}
	if got := tri(map[int]TriState{1: TriTrue}); got != TriUnknown {
		t.Errorf("t1 true alone should be Unknown, got %v", got)
	}
	if got := Not(Var(1)).EvalTri(func(int) TriState { return TriUnknown }); got != TriUnknown {
		t.Errorf("¬unknown should be Unknown, got %v", got)
	}
}

func TestEvalTriConsistentWithEval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomMonotone(rng, 3, 5)
		if rng.Intn(2) == 0 {
			e = Not(e)
		}
		m := map[int]bool{}
		for i := 0; i < 5; i++ {
			m[i] = rng.Intn(2) == 0
		}
		tri := e.EvalTri(func(id int) TriState {
			if m[id] {
				return TriTrue
			}
			return TriFalse
		})
		want := TriFalse
		if e.Eval(assignFrom(m)) {
			want = TriTrue
		}
		return tri == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	e := And(Var(1), Or(Var(4), Var(5)))
	s := e.String()
	if s != "t1·(t4 + t5)" {
		t.Errorf("String = %q", s)
	}
	if Not(Var(2)).String() != "¬t2" {
		t.Errorf("Not String = %q", Not(Var(2)).String())
	}
	if True().String() != "⊤" || False().String() != "⊥" {
		t.Error("constant rendering")
	}
}

func TestCNFBuilderTseitinEquisatisfiable(t *testing.T) {
	// For random expressions, every model of the CNF restricted to base
	// vars must satisfy the expression, and if the expression is
	// satisfiable the CNF must be too (checked by brute force).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		e := randomExpr(rng, 3, 4)
		b := NewCNFBuilder()
		b.Assert(e)

		// Brute-force the CNF over all variables.
		n := b.NumVars
		if n > 16 {
			continue
		}
		cnfSat := false
		var satisfyingBase map[int]bool
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, cl := range b.Clauses {
				cok := false
				for _, l := range cl {
					v := l
					if v < 0 {
						v = -v
					}
					val := mask&(1<<(v-1)) != 0
					if (l > 0) == val {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				cnfSat = true
				satisfyingBase = map[int]bool{}
				for id := 0; id < 4; id++ {
					if b.HasVar(id) {
						v := b.VarFor(id)
						satisfyingBase[id] = mask&(1<<(v-1)) != 0
					}
				}
				break
			}
		}
		// Brute-force the expression.
		exprSat := false
		for mask := 0; mask < 16; mask++ {
			if e.Eval(func(id int) bool { return mask&(1<<id) != 0 }) {
				exprSat = true
				break
			}
		}
		if cnfSat != exprSat {
			t.Fatalf("trial %d: CNF sat=%v, expr sat=%v for %v", trial, cnfSat, exprSat, e)
		}
		if cnfSat {
			if !e.Eval(assignFrom(satisfyingBase)) {
				t.Fatalf("trial %d: CNF model does not satisfy expr %v (base=%v)", trial, e, satisfyingBase)
			}
		}
	}
}

func randomExpr(rng *rand.Rand, depth, nvars int) *Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		v := Var(rng.Intn(nvars))
		if rng.Intn(2) == 0 {
			return Not(v)
		}
		return v
	}
	n := 2 + rng.Intn(2)
	kids := make([]*Expr, n)
	for i := range kids {
		kids[i] = randomExpr(rng, depth-1, nvars)
	}
	switch rng.Intn(3) {
	case 0:
		return And(kids...)
	case 1:
		return Or(kids...)
	default:
		return Not(And(kids...))
	}
}

// treeCopy rebuilds e so that no subexpression is shared by pointer.
func treeCopy(e *Expr) *Expr {
	c := &Expr{Op: e.Op, X: e.X}
	for _, k := range e.Kids {
		c.Kids = append(c.Kids, treeCopy(k))
	}
	return c
}

// randomDAG draws each of n formulas over the variables and the formulas
// drawn before it, so the last one shares earlier ones by pointer.
func randomDAG(rng *rand.Rand, n, nvars int) *Expr {
	var pool []*Expr
	for id := 0; id < nvars; id++ {
		pool = append(pool, Var(id))
	}
	for i := 0; i < n; i++ {
		kids := make([]*Expr, 2+rng.Intn(2))
		for j := range kids {
			kids[j] = pool[rng.Intn(len(pool))]
		}
		switch rng.Intn(3) {
		case 0:
			pool = append(pool, And(kids...))
		case 1:
			pool = append(pool, Or(kids...))
		default:
			pool = append(pool, Not(Or(kids...)))
		}
	}
	return pool[len(pool)-1]
}

// TestCNFBuilderStructural: a formula built as a DAG and its tree-shaped
// copy, in which every shared subexpression is rebuilt, encode to the same
// variables and clauses.
func TestCNFBuilderStructural(t *testing.T) {
	s := Or(Var(1), Var(2))
	n := Not(And(Var(1), Var(3)))
	a := And(Var(1), Var(2))
	b := Or(a, Var(3))
	c := And(b, Not(a))
	formulas := []*Expr{
		Or(And(s, Var(3)), And(s, Var(4)), Not(s)),
		And(Or(n, Var(3)), Or(n, Var(4)), n),
		Or(c, And(b, Var(4)), Not(c)),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		formulas = append(formulas, randomDAG(rng, 2+rng.Intn(7), 5))
	}
	for _, e := range formulas {
		dag, tree := NewCNFBuilder(), NewCNFBuilder()
		dag.Assert(e)
		tree.Assert(treeCopy(e))
		if dag.NumVars != tree.NumVars || !reflect.DeepEqual(dag.Clauses, tree.Clauses) || !reflect.DeepEqual(dag.varOf, tree.varOf) {
			t.Fatalf("%v: the DAG encodes to %d variables and %v, its tree-shaped copy to %d and %v",
				e, dag.NumVars, dag.Clauses, tree.NumVars, tree.Clauses)
		}
	}
}

func TestCNFBuilderImplies(t *testing.T) {
	b := NewCNFBuilder()
	b.Assert(Var(10))
	b.AssertImplies(10, []int{20})
	// Clauses: root(var10), (¬v10 ∨ v20).
	v10, v20 := b.VarFor(10), b.VarFor(20)
	found := false
	for _, cl := range b.Clauses {
		if len(cl) == 2 && ((cl[0] == -v10 && cl[1] == v20) || (cl[1] == -v10 && cl[0] == v20)) {
			found = true
		}
	}
	if !found {
		t.Error("implication clause missing")
	}
	if _, ok := b.ExprVar(v10); !ok {
		t.Error("ExprVar should map base var")
	}
	if len(b.BaseVars()) != 2 {
		t.Errorf("BaseVars = %v", b.BaseVars())
	}
}
