package core

import (
	"fmt"
	"testing"

	"repro/internal/pool"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

func example1Problem() Problem {
	return Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: testdb.Example1DB()}
}

func TestOptSigmaExample1(t *testing.T) {
	// The paper's headline example: the smallest counterexample has 3
	// tuples (a CS student plus two of their CS registrations).
	p := example1Problem()
	ce, stats, err := OptSigma(p)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() != 3 {
		t.Fatalf("counterexample size = %d, want 3 (ids %v)", ce.Size(), ce.IDs)
	}
	if !stats.Optimal {
		t.Error("optimizer should prove optimality")
	}
	if err := Verify(p, ce); err != nil {
		t.Errorf("verification failed: %v", err)
	}
	// It must contain exactly 1 student and 2 registrations.
	if ce.DB.Relation("Student").Len() != 1 || ce.DB.Relation("Registration").Len() != 2 {
		t.Errorf("shape = %d students, %d registrations", ce.DB.Relation("Student").Len(), ce.DB.Relation("Registration").Len())
	}
}

func TestBasicExample1(t *testing.T) {
	p := example1Problem()
	ce, stats, err := Basic(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Basic enumerates enough models on this toy instance to find the
	// optimum too (the paper found Basic reaches the optimum here).
	if ce.Size() != 3 {
		t.Errorf("Basic size = %d, want 3", ce.Size())
	}
	if stats.ModelsTried == 0 {
		t.Error("no models tried")
	}
}

func TestBasicNeverSmallerThanOptSigma(t *testing.T) {
	p := example1Problem()
	ceB, _, err := Basic(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	ceO, _, err := OptSigma(p)
	if err != nil {
		t.Fatal(err)
	}
	if ceB.Size() < ceO.Size() {
		t.Errorf("Basic (%d) beat the optimizer (%d)", ceB.Size(), ceO.Size())
	}
}

func TestOptSigmaWithForeignKeys(t *testing.T) {
	// With the Registration→Student FK, any witness keeping a registration
	// must keep the referenced student.
	p := example1Problem()
	p.Constraints = testdb.Constraints()
	ce, _, err := OptSigma(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("FK-constrained counterexample invalid: %v", err)
	}
	// Size is still 3: the student tuple was needed anyway.
	if ce.Size() != 3 {
		t.Errorf("size = %d, want 3", ce.Size())
	}
}

func TestForeignKeyForcesParent(t *testing.T) {
	// A query pair whose witness needs only a Registration tuple; the FK
	// must pull in the Student parent.
	db := testdb.Example1DB()
	q1 := raparser.MustParse("project[name](select[dept = 'CS'](Registration))")
	q2 := raparser.MustParse("project[name](select[dept = 'PHYS'](Registration))")
	p := Problem{Q1: q1, Q2: q2, DB: db, Constraints: testdb.Constraints()}
	ce, _, err := OptSigma(p)
	if err != nil {
		t.Fatal(err)
	}
	if ce.DB.Relation("Student").Len() != 1 {
		t.Errorf("FK should force the parent student, got %d students", ce.DB.Relation("Student").Len())
	}
	if ce.Size() != 2 {
		t.Errorf("size = %d, want 2 (registration + parent)", ce.Size())
	}
	// Without the FK, one registration tuple suffices.
	p2 := Problem{Q1: q1, Q2: q2, DB: db}
	ce2, _, err := OptSigma(p2)
	if err != nil {
		t.Fatal(err)
	}
	if ce2.Size() != 1 {
		t.Errorf("unconstrained size = %d, want 1", ce2.Size())
	}
}

func TestMonotoneSWP(t *testing.T) {
	db := testdb.Example1DB()
	// Q1 monotone: CS students; Q2 monotone: ECON-department students.
	q1 := raparser.MustParse("project[name](select[dept = 'CS'](Student join Registration))")
	q2 := raparser.MustParse("project[name](select[dept = 'PHYS'](Student join Registration))")
	p := Problem{Q1: q1, Q2: q2, DB: db}
	ce, stats, err := MonotoneSWP(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() != 2 {
		t.Errorf("size = %d, want 2 (student + registration)", ce.Size())
	}
	if !stats.Optimal {
		t.Error("DNF algorithm is exact")
	}
	// Agreement with the solver-based algorithm.
	ce2, _, err := OptSigma(p)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() != ce2.Size() {
		t.Errorf("DNF (%d) and OptSigma (%d) disagree", ce.Size(), ce2.Size())
	}
}

func TestMonotoneSWPRejectsNonMonotone(t *testing.T) {
	p := example1Problem() // Q1 contains difference
	if _, _, err := MonotoneSWP(p, 0); err == nil {
		t.Error("non-monotone query should be rejected")
	}
}

func TestSPJUDStarExample1(t *testing.T) {
	// Q1 and Q2 of Example 1 are SPJUD* (Q1 = q+ − q+, Q2 = q+).
	p := example1Problem()
	if !ra.IsSPJUDStar(p.Q1) || !ra.IsSPJUDStar(p.Q2) {
		t.Fatal("example queries should be SPJUD*")
	}
	ce, stats, err := SPJUDStarSWP(p, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() != 3 {
		t.Errorf("SPJUD* enumeration size = %d, want 3", ce.Size())
	}
	if !stats.Optimal {
		t.Error("enumeration is exact")
	}
}

func TestPushDownTupleSelection(t *testing.T) {
	db := testdb.Example1DB()
	q := testdb.Q2()
	tup := relation.NewTuple(relation.String("Mary"), relation.String("CS"))
	pushed := PushDownTupleSelection(q, tup, db)
	// The pushed tree must still produce Mary (and only rows matching her
	// values).
	s := pushed.String()
	if s == q.String() {
		t.Error("pushdown did not rewrite the tree")
	}
	// Selections must have been pushed below the projection.
	if _, ok := pushed.(*ra.Select); ok {
		t.Errorf("selection stayed at top: %s", s)
	}
}

func TestVerifyRejectsBogus(t *testing.T) {
	p := example1Problem()
	// Empty subinstance: queries agree (both empty).
	sub, ids := subinstanceFromIDs(p.DB, nil)
	ce := &Counterexample{DB: sub, IDs: ids}
	if err := Verify(p, ce); err == nil {
		t.Error("empty subinstance should fail verification")
	}
}

func TestDisagrees(t *testing.T) {
	p := example1Problem()
	d, d12, d21, err := Disagrees(p.Q1, p.Q2, p.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d {
		t.Fatal("queries must disagree")
	}
	if d12.Len() != 0 || d21.Len() != 2 {
		t.Errorf("d12=%d d21=%d, want 0 and 2", d12.Len(), d21.Len())
	}
	// A query disagrees with itself never.
	d, _, _, err = Disagrees(p.Q1, p.Q1, p.DB, nil)
	if err != nil || d {
		t.Error("query agrees with itself")
	}
}

func TestExplainDispatch(t *testing.T) {
	p := example1Problem()
	if AlgorithmFor(p) != "OptSigma" {
		t.Error("SPJUD should dispatch to OptSigma")
	}
	ce, stats, err := Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() != 3 || stats.Algorithm != "OptSigma" {
		t.Errorf("size=%d algo=%s", ce.Size(), stats.Algorithm)
	}

	pa := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB()}
	if AlgorithmFor(pa) != "Agg-Opt" {
		t.Error("aggregates should dispatch to Agg-Opt")
	}
	ce, _, err = Explain(pa)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pa, ce); err != nil {
		t.Errorf("aggregate counterexample invalid: %v", err)
	}
	// Mixing aggregate and non-aggregate is rejected.
	if _, _, err := Explain(Problem{Q1: testdb.AggQ1(), Q2: testdb.Q2(), DB: testdb.Example1DB()}); err == nil {
		t.Error("mixed classes should error")
	}
}

func TestAgreeingQueriesError(t *testing.T) {
	db := testdb.Example1DB()
	q := raparser.MustParse("project[name](Student)")
	p := Problem{Q1: q, Q2: q, DB: db}
	if _, _, err := OptSigma(p); err == nil {
		t.Error("agreeing queries should error")
	}
	if _, _, err := Basic(p, 8); err == nil {
		t.Error("agreeing queries should error (Basic)")
	}
}

func TestSolveWitnessStrategy(t *testing.T) {
	p := example1Problem()
	optSize, _, err := SolveWitnessStrategy(p, "opt", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 16, 128} {
		size, tried, err := SolveWitnessStrategy(p, "naive", m)
		if err != nil {
			t.Fatal(err)
		}
		if size < optSize {
			t.Errorf("naive-%d (%d) beat opt (%d)", m, size, optSize)
		}
		if tried > m {
			t.Errorf("naive-%d tried %d models", m, tried)
		}
	}
}

// TestParallelWitnessSearchMatchesSerial: the fan-out loops of Basic and
// OptSigmaAll reduce per-index results in iteration order, so the chosen
// counterexample is identical to the serial algorithms'.
func TestParallelWitnessSearchMatchesSerial(t *testing.T) {
	saved := pool.DefaultWorkers
	t.Cleanup(func() { pool.DefaultWorkers = saved })
	p := example1Problem()

	pool.DefaultWorkers = 1
	ceBS, _, err := Basic(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	ceAS, _, err := OptSigmaAll(p)
	if err != nil {
		t.Fatal(err)
	}
	pool.DefaultWorkers = 8
	for run := 0; run < 3; run++ {
		ceBP, _, err := Basic(p, 128)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ceBP.IDs) != fmt.Sprint(ceBS.IDs) || !ceBP.Witness.Identical(ceBS.Witness) {
			t.Fatalf("Basic parallel ids %v witness %v, serial ids %v witness %v",
				ceBP.IDs, ceBP.Witness, ceBS.IDs, ceBS.Witness)
		}
		ceAP, _, err := OptSigmaAll(p)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ceAP.IDs) != fmt.Sprint(ceAS.IDs) || !ceAP.Witness.Identical(ceAS.Witness) {
			t.Fatalf("OptSigmaAll parallel ids %v witness %v, serial ids %v witness %v",
				ceAP.IDs, ceAP.Witness, ceAS.IDs, ceAS.Witness)
		}
	}
}
