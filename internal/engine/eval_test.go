package engine_test

import (
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// This file checks the engine's set-semantics and how-provenance entry
// points (Eval, EvalProv) on the paper's running example: Example 1's
// results, Equation (1) and Example 2.1's provenance, NULL join semantics,
// aggregates and parameters.

func mustEval(t *testing.T, src string, db *relation.Database) *relation.Relation {
	t.Helper()
	q, err := raparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.Eval(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvalBaseRelation(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "Student", db)
	if r.Len() != 3 {
		t.Errorf("Student len = %d", r.Len())
	}
}

func TestEvalSelectJoin(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "select[dept = 'CS'](Student join Registration)", db)
	// 6 CS registrations joined with their students.
	if r.Len() != 6 {
		t.Errorf("len = %d, want 6", r.Len())
	}
	if r.Schema.Arity() != 5 {
		t.Errorf("arity = %d, want 5", r.Schema.Arity())
	}
}

func TestEvalProjectDedups(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "project[dept](Registration)", db)
	if r.Len() != 2 {
		t.Errorf("distinct depts = %d, want 2", r.Len())
	}
}

func TestEvalExample1Results(t *testing.T) {
	// Figure 2 of the paper: Q1 returns {(John, ECON)}, Q2 returns all 3.
	db := testdb.Example1DB()
	r1, err := engine.Eval(testdb.Q1(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 || !r1.Tuples[0][0].Identical(relation.String("John")) {
		t.Errorf("Q1(D) = %v, want [(John, ECON)]", r1.Tuples)
	}
	r2, err := engine.Eval(testdb.Q2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 3 {
		t.Errorf("Q2(D) = %v, want 3 tuples", r2.Tuples)
	}
	diff := r2.SetDiff(r1)
	if diff.Len() != 2 {
		t.Errorf("Q2-Q1 = %v, want Mary and Jesse", diff.Tuples)
	}
}

func TestEvalUnionDiff(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "project[name](Student) union project[name](Registration)", db)
	if r.Len() != 3 {
		t.Errorf("union len = %d", r.Len())
	}
	r = mustEval(t, "project[name](Student) diff project[name](select[dept = 'ECON'](Registration))", db)
	if r.Len() != 1 || !r.Tuples[0][0].Identical(relation.String("Jesse")) {
		t.Errorf("diff = %v, want [Jesse]", r.Tuples)
	}
}

func TestEvalThetaJoinAndRename(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, `project[s.name](select[r1.course <> r2.course and r1.dept = 'CS' and r2.dept = 'CS'
		and s.name = r1.name and s.name = r2.name](
		rename[s](Student) cross rename[r1](Registration) cross rename[r2](Registration)))`, db)
	// Students with >= 2 distinct CS courses: Mary, Jesse.
	if r.Len() != 2 {
		t.Errorf("multi-CS students = %v", r.Tuples)
	}
}

func TestEvalGroupByExample4(t *testing.T) {
	db := testdb.Example1DB()
	r, err := engine.Eval(testdb.AggQ1(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Mary": 87.5, "John": 90, "Jesse": 90}
	if r.Len() != 3 {
		t.Fatalf("groups = %v", r.Tuples)
	}
	for _, tup := range r.Tuples {
		name := tup[0].AsString()
		if got := tup[1].AsFloat(); got != want[name] {
			t.Errorf("avg(%s) = %v, want %v", name, got, want[name])
		}
	}
}

func TestEvalGroupByHaving(t *testing.T) {
	db := testdb.Example1DB()
	r, err := engine.Eval(testdb.HavingQ1(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only Jesse has >= 3 CS courses.
	if r.Len() != 1 || !r.Tuples[0][0].Identical(relation.String("Jesse")) {
		t.Errorf("having result = %v", r.Tuples)
	}
	r2, err := engine.Eval(testdb.HavingQ2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without the dept filter, Mary (3 courses) also qualifies.
	if r2.Len() != 2 {
		t.Errorf("wrong-query result = %v", r2.Tuples)
	}
}

func TestEvalParameters(t *testing.T) {
	db := testdb.Example1DB()
	q := testdb.ParamQ1()
	r, err := engine.Eval(q, db, map[string]relation.Value{"numCS": relation.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("numCS=3: %v", r.Tuples)
	}
	r, err = engine.Eval(q, db, map[string]relation.Value{"numCS": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Errorf("numCS=1: %v", r.Tuples)
	}
	if _, err := engine.Eval(q, db, nil); err == nil {
		t.Error("unbound parameter should error")
	}
}

func TestEvalAggFunctions(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "groupby[name; count(*) -> c, sum(grade) -> s, min(grade) -> mn, max(grade) -> mx](Registration)", db)
	byName := map[string]relation.Tuple{}
	for _, tup := range r.Tuples {
		byName[tup[0].AsString()] = tup
	}
	mary := byName["Mary"]
	if mary[1].AsInt() != 3 || mary[2].AsInt() != 270 || mary[3].AsInt() != 75 || mary[4].AsInt() != 100 {
		t.Errorf("Mary aggs = %v", mary)
	}
}

func TestEvalGroupByEmptyGroupCols(t *testing.T) {
	db := testdb.Example1DB()
	r := mustEval(t, "groupby[; count(*) -> c](Student)", db)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 3 {
		t.Errorf("global count = %v", r.Tuples)
	}
}

func TestEvalAggNullHandling(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(
		relation.Attr("g", relation.KindString), relation.Attr("v", relation.KindInt)))
	db.Insert("R", relation.NewTuple(relation.String("a"), relation.Int(10)))
	db.Insert("R", relation.NewTuple(relation.String("a"), relation.Null()))
	r := mustEval(t, "groupby[g; count(v) -> c, avg(v) -> a](R)", db)
	if r.Tuples[0][1].AsInt() != 1 {
		t.Errorf("count skips NULL: %v", r.Tuples[0])
	}
	if r.Tuples[0][2].AsFloat() != 10 {
		t.Errorf("avg skips NULL: %v", r.Tuples[0])
	}
}

func TestEvalErrors(t *testing.T) {
	db := testdb.Example1DB()
	bad := []string{
		"Nope",
		"select[nope = 1](Student)",
		"project[nope](Student)",
		"Student union Registration",
		"Student diff Registration",
	}
	for _, src := range bad {
		q, err := raparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Eval(q, db, nil); err == nil {
			t.Errorf("engine.Eval(%q) should fail", src)
		}
	}
}

func TestEvalNullsDontJoin(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("A", relation.NewSchema(relation.Attr("k", relation.KindString)))
	db.CreateRelation("B", relation.NewSchema(
		relation.Attr("k", relation.KindString), relation.Attr("v", relation.KindInt)))
	db.Insert("A", relation.NewTuple(relation.Null()))
	db.Insert("A", relation.NewTuple(relation.String("x")))
	db.Insert("B", relation.NewTuple(relation.Null(), relation.Int(1)))
	db.Insert("B", relation.NewTuple(relation.String("x"), relation.Int(2)))
	r := mustEval(t, "A join B", db)
	if r.Len() != 1 {
		t.Errorf("NULL keys must not join: %v", r.Tuples)
	}
}

func TestCatalogAdapter(t *testing.T) {
	db := testdb.Example1DB()
	cat := engine.Catalog{DB: db}
	if _, ok := cat.RelationSchema("Student"); !ok {
		t.Error("Student should resolve")
	}
	if _, ok := cat.RelationSchema("Nope"); ok {
		t.Error("Nope should not resolve")
	}
	q := testdb.Q1()
	if _, err := ra.OutSchema(q, cat); err != nil {
		t.Errorf("schema inference on Q1: %v", err)
	}
}

// assignIDs builds an assignment where exactly the listed tuple ids are
// present.
func assignIDs(ids ...int) func(int) bool {
	set := map[int]bool{}
	for _, id := range ids {
		set[id] = true
	}
	return func(id int) bool { return set[id] }
}

func TestProvBaseAndJoin(t *testing.T) {
	db := testdb.Example1DB()
	q := raparser.MustParse("select[dept = 'CS'](Student join Registration)")
	ann, err := engine.EvalProv(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Len() != 6 {
		t.Fatalf("len = %d", ann.Len())
	}
	// Each joined tuple's provenance is the conjunction of its sources,
	// e.g. (Mary, 216, ...) = t1 ∧ t4.
	for i, tup := range ann.Tuples {
		prov := ann.Anns[i]
		vars := prov.Vars()
		if len(vars) != 2 {
			t.Errorf("%v: prov %v should have 2 vars", tup, prov)
		}
	}
}

func TestProvExample1Equation1(t *testing.T) {
	// Prv_{Q2}(Mary, CS) = t1·(t4 + t5), Equation (1) of the paper.
	db := testdb.Example1DB()
	ann, err := engine.EvalProv(testdb.Q2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := ann.Lookup(relation.NewTuple(relation.String("Mary"), relation.String("CS")))
	if i < 0 {
		t.Fatal("Mary missing")
	}
	prov := ann.Anns[i]
	// Check logical equivalence with t1·(t4+t5) over the relevant vars.
	want := boolexpr.And(boolexpr.Var(1), boolexpr.Or(boolexpr.Var(4), boolexpr.Var(5)))
	for mask := 0; mask < 8; mask++ {
		ids := []int{}
		if mask&1 != 0 {
			ids = append(ids, 1)
		}
		if mask&2 != 0 {
			ids = append(ids, 4)
		}
		if mask&4 != 0 {
			ids = append(ids, 5)
		}
		a := assignIDs(ids...)
		if prov.Eval(a) != want.Eval(a) {
			t.Errorf("mismatch at %v: prov=%v", ids, prov)
		}
	}
}

func TestProvDifferenceExample21(t *testing.T) {
	// Example 2.1: Prv_{Q2−Q1}(Mary, CS) ≡ t1·t4·t5.
	db := testdb.Example1DB()
	q := &ra.Diff{L: testdb.Q2(), R: testdb.Q1()}
	ann, err := engine.EvalProv(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := ann.Lookup(relation.NewTuple(relation.String("Mary"), relation.String("CS")))
	if i < 0 {
		t.Fatal("Mary missing from annotated Q2−Q1")
	}
	prov := ann.Anns[i]
	// Mary's row needs t1, t4, t5 all present; check all assignments over
	// {t1,t4,t5} (other tuples absent — they don't affect Mary's row).
	for mask := 0; mask < 8; mask++ {
		var ids []int
		if mask&1 != 0 {
			ids = append(ids, 1)
		}
		if mask&2 != 0 {
			ids = append(ids, 4)
		}
		if mask&4 != 0 {
			ids = append(ids, 5)
		}
		got := prov.Eval(assignIDs(ids...))
		want := mask == 7
		if got != want {
			t.Errorf("ids=%v: prov=%v, want %v", ids, got, want)
		}
	}
}

func TestProvExactnessAgainstSubinstances(t *testing.T) {
	// Fundamental exactness property: for every subinstance D' and output
	// tuple t, Prv(t) evaluated on D' ⇔ t ∈ Q(D'). Exhaustive over a
	// reduced id space for tractability.
	db := testdb.Example1DB()
	queries := []string{
		"project[name, major](select[dept = 'CS'](Student join Registration))",
		"project[name](Student) diff project[name](select[dept = 'ECON'](Registration))",
		"project[name](select[grade >= 90](Registration)) union project[name](Student)",
	}
	for _, src := range queries {
		q := raparser.MustParse(src)
		ann, err := engine.EvalProv(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sample subinstances: single student + subsets of registrations 4..8.
		for mask := 0; mask < 64; mask++ {
			keep := map[relation.TupleID]bool{1: mask&32 != 0, 2: true, 3: false}
			var ids []int
			if mask&32 != 0 {
				ids = append(ids, 1)
			}
			ids = append(ids, 2)
			for b := 0; b < 5; b++ {
				if mask&(1<<b) != 0 {
					keep[relation.TupleID(4+b)] = true
					ids = append(ids, 4+b)
				}
			}
			sub := db.Subinstance(keep)
			res, err := engine.Eval(q, sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			inResult := map[string]bool{}
			for _, tup := range res.Tuples {
				inResult[tup.Key()] = true
			}
			assign := assignIDs(ids...)
			for i, tup := range ann.Tuples {
				if ann.Anns[i].Eval(assign) != inResult[tup.Key()] {
					t.Fatalf("%s: exactness violated for %v on ids %v (prov=%v, inResult=%v)",
						src, tup, ids, ann.Anns[i], inResult[tup.Key()])
				}
			}
			// Tuples in Q(D') must all appear in the annotated full result
			// (monotonicity of the annotated carrier set holds for these
			// queries).
			for _, tup := range res.Tuples {
				if ann.Lookup(tup) < 0 {
					t.Fatalf("%s: tuple %v in Q(D') missing from annotated Q(D)", src, tup)
				}
			}
		}
	}
}

func TestProvDedupMergesWithOr(t *testing.T) {
	db := testdb.Example1DB()
	// project[name] over Registration: Mary appears via t4, t5, t6.
	ann, err := engine.EvalProv(raparser.MustParse("project[name](Registration)"), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := ann.Lookup(relation.NewTuple(relation.String("Mary")))
	if i < 0 {
		t.Fatal("Mary missing")
	}
	vars := ann.Anns[i].Vars()
	if len(vars) != 3 {
		t.Errorf("Mary's projection prov vars = %v, want t4,t5,t6", vars)
	}
}

func TestProvRejectsGroupBy(t *testing.T) {
	db := testdb.Example1DB()
	if _, err := engine.EvalProv(testdb.AggQ1(), db, nil); err == nil {
		t.Error("EvalProv should reject aggregation")
	}
}

func TestProvRenamePreservesAnnotations(t *testing.T) {
	db := testdb.Example1DB()
	ann, err := engine.EvalProv(raparser.MustParse("rename[s](Student)"), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Schema.Attrs[0].Name != "s.name" {
		t.Errorf("schema = %v", ann.Schema)
	}
	if ann.Len() != 3 {
		t.Errorf("len = %d", ann.Len())
	}
}

func TestProvRelRelation(t *testing.T) {
	db := testdb.Example1DB()
	ann, err := engine.EvalProv(testdb.Q2(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := ann.Relation("q2")
	if r.Len() != ann.Len() || r.Name != "q2" {
		t.Error("Relation() mismatch")
	}
}
