package core

import (
	"errors"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/smt"
	"repro/internal/testdb"
)

// assignIDs builds an assignment where exactly the listed tuple ids are
// present.
func assignIDs(ids ...int) func(int) bool {
	set := map[int]bool{}
	for _, id := range ids {
		set[id] = true
	}
	return func(id int) bool { return set[id] }
}

func TestAggProvExample4Structure(t *testing.T) {
	db := testdb.Example1DB()
	res, err := evalAggProv(testdb.AggQ2(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	mary := res.groupByKey(relation.NewTuple(relation.String("Mary")))
	if mary == nil {
		t.Fatal("Mary group missing")
	}
	// Q2 (no dept filter): Mary's group has 3 member tuples.
	if mary.Size != 3 {
		t.Errorf("Mary group size = %d, want 3", mary.Size)
	}
	if len(mary.Aggs) != 1 || mary.Aggs[0].Func != ra.Avg {
		t.Fatalf("aggs = %v", mary.Aggs)
	}
	if len(mary.Aggs[0].Terms) != 3 {
		t.Errorf("avg terms = %d, want 3", len(mary.Aggs[0].Terms))
	}
	// With all tuples present the avg must be 90 = (100+75+95)/3.
	all := func(int) bool { return true }
	v, ok := mary.Aggs[0].Eval(all)
	if !ok || v != 90 {
		t.Errorf("avg = %v (%v), want 90", v, ok)
	}
	// Dropping t6 (the ECON course) gives 87.5, matching Q1's answer.
	no6 := func(id int) bool { return id != 6 }
	v, ok = mary.Aggs[0].Eval(no6)
	if !ok || v != 87.5 {
		t.Errorf("avg without t6 = %v, want 87.5", v)
	}
}

func TestAggProvExistence(t *testing.T) {
	db := testdb.Example1DB()
	res, err := evalAggProv(testdb.AggQ1(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mary := res.groupByKey(relation.NewTuple(relation.String("Mary")))
	if mary == nil {
		t.Fatal("Mary group missing")
	}
	// Group exists iff t1 and at least one of t4, t5 (the CS courses).
	cases := []struct {
		ids  []int
		want bool
	}{
		{[]int{1, 4}, true},
		{[]int{1, 5}, true},
		{[]int{1, 6}, false}, // ECON course filtered by Q1
		{[]int{4, 5}, false}, // no student tuple
		{[]int{1}, false},
	}
	for _, c := range cases {
		set := map[int]bool{}
		for _, id := range c.ids {
			set[id] = true
		}
		got := mary.Exists.Eval(func(id int) bool { return set[id] })
		if got != c.want {
			t.Errorf("exists(%v) = %v, want %v", c.ids, got, c.want)
		}
	}
}

func TestAggProvHavingTranslation(t *testing.T) {
	db := testdb.Example1DB()
	res, err := evalAggProv(testdb.HavingQ2(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mary := res.groupByKey(relation.NewTuple(relation.String("Mary")))
	if mary == nil {
		t.Fatal("Mary group missing")
	}
	// HAVING cnt >= 3: with all three registrations present it passes;
	// with only two it fails.
	all := func(int) bool { return true }
	if !smt.EvalFormula(mary.presence(), all, nil) {
		t.Error("Mary should pass HAVING with all tuples")
	}
	no6 := func(id int) bool { return id != 6 }
	if smt.EvalFormula(mary.presence(), no6, nil) {
		t.Error("Mary should fail HAVING with 2 courses")
	}
}

func TestAggProvParamStaysSymbolic(t *testing.T) {
	db := testdb.Example1DB()
	res, err := evalAggProv(testdb.ParamQ2(), db, nil, engine.Options{}) // no binding for @numCS
	if err != nil {
		t.Fatal(err)
	}
	mary := res.groupByKey(relation.NewTuple(relation.String("Mary")))
	all := func(int) bool { return true }
	// numCS = 3: passes (3 courses); numCS = 4: fails.
	if !smt.EvalFormula(mary.presence(), all, map[string]float64{"numCS": 3}) {
		t.Error("numCS=3 should pass")
	}
	if smt.EvalFormula(mary.presence(), all, map[string]float64{"numCS": 4}) {
		t.Error("numCS=4 should fail")
	}
}

func TestAggProvOutCols(t *testing.T) {
	db := testdb.Example1DB()
	res, err := evalAggProv(testdb.AggQ1(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutCols) != 2 {
		t.Fatalf("out cols = %v", res.OutCols)
	}
	if res.OutCols[0].IsAgg || !res.OutCols[1].IsAgg {
		t.Errorf("out cols = %v", res.OutCols)
	}
}

func TestAggProvRejectsNonAggregate(t *testing.T) {
	db := testdb.Example1DB()
	if _, err := evalAggProv(testdb.Q2(), db, nil, engine.Options{}); err == nil {
		t.Error("non-aggregate query should be rejected")
	}
}

func TestAggProvCountStar(t *testing.T) {
	db := testdb.Example1DB()
	q := &ra.GroupBy{GroupCols: []string{"name"},
		Aggs: []ra.AggSpec{{Func: ra.Count, As: "c"}},
		In:   &ra.Rel{Name: "Registration"}}
	res, err := evalAggProv(q, db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jesse := res.groupByKey(relation.NewTuple(relation.String("Jesse")))
	if jesse == nil {
		t.Fatal("Jesse group missing")
	}
	v, ok := jesse.Aggs[0].Eval(func(int) bool { return true })
	if !ok || v != 3 {
		t.Errorf("count = %v", v)
	}
	// Count with nothing selected is 0 (defined), not NULL.
	v, ok = jesse.Aggs[0].Eval(func(int) bool { return false })
	if !ok || v != 0 {
		t.Errorf("empty count = %v ok=%v, want 0 true", v, ok)
	}
}

func TestAggProvAgainstConcreteSubinstances(t *testing.T) {
	// Exactness: for sampled subinstances, the symbolic aggregate equals
	// the concretely evaluated aggregate.
	db := testdb.Example1DB()
	res, err := evalAggProv(testdb.AggQ2(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 16; mask++ {
		keep := map[relation.TupleID]bool{1: true, 2: true, 3: true}
		var ids []int
		for _, id := range []int{1, 2, 3} {
			ids = append(ids, id)
		}
		for b := 0; b < 4; b++ {
			if mask&(1<<b) != 0 {
				keep[relation.TupleID(4+b)] = true
				ids = append(ids, 4+b)
			}
		}
		sub := db.Subinstance(keep)
		conc, err := engine.Eval(testdb.AggQ2(), sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		concrete := map[string]float64{}
		for _, tup := range conc.Tuples {
			concrete[tup[0].AsString()] = tup[1].AsFloat()
		}
		assign := assignIDs(ids...)
		for _, g := range res.Groups {
			name := g.Key[0].AsString()
			v, ok := g.Aggs[0].Eval(assign)
			cv, inConc := concrete[name]
			exists := g.Exists.Eval(assign)
			if exists != inConc {
				t.Fatalf("mask %d: group %s existence mismatch (sym=%v conc=%v)", mask, name, exists, inConc)
			}
			if exists && ok && v != cv {
				t.Fatalf("mask %d: group %s avg mismatch (sym=%v conc=%v)", mask, name, v, cv)
			}
		}
	}
}

func TestGroupDisagreementViaPresence(t *testing.T) {
	// The Example 4 counterexample: a single ECON tuple (t6) makes Q2
	// return (Mary, 88) while Q1 returns nothing.
	db := testdb.Example1DB()
	r1, err := evalAggProv(testdb.AggQ1(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := evalAggProv(testdb.AggQ2(), db, nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mary := relation.NewTuple(relation.String("Mary"))
	g1, g2 := r1.groupByKey(mary), r2.groupByKey(mary)
	assign := assignIDs(1, 6) // Mary + her ECON registration
	p1 := g1.Exists.Eval(assign)
	p2 := g2.Exists.Eval(assign)
	if p1 || !p2 {
		t.Errorf("with {t1,t6}: Q1 presence=%v Q2 presence=%v, want false/true", p1, p2)
	}
	_ = boolexpr.True() // keep boolexpr imported for future extensions
}

// TestAggProvHonorsBudget: the provenance pass runs under the caller's
// engine options, so a failing stop hook and a one-row budget each abort it.
func TestAggProvHonorsBudget(t *testing.T) {
	db := testdb.Example1DB()
	errStop := errors.New("stop")
	_, err := evalAggProv(testdb.AggQ1(), db, nil, engine.Options{Stop: func() error { return errStop }})
	if !errors.Is(err, errStop) {
		t.Errorf("failing Stop: got %v, want the stop error", err)
	}
	_, err = evalAggProv(testdb.AggQ1(), db, nil, engine.Options{MaxRows: 1})
	if !errors.Is(err, engine.ErrRowBudget) {
		t.Errorf("MaxRows 1: got %v, want ErrRowBudget", err)
	}
}
