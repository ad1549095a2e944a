package tpch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
)

const testSF = 0.0008

func testDB(t *testing.T) *relation.Database {
	t.Helper()
	return Generate(testSF, 1)
}

func TestGenerateCardinalities(t *testing.T) {
	db := testDB(t)
	if db.Relation("region").Len() != 5 || db.Relation("nation").Len() != 25 {
		t.Error("region/nation sizes")
	}
	nOrd := db.Relation("orders").Len()
	nLi := db.Relation("lineitem").Len()
	if nOrd < 100 {
		t.Errorf("orders = %d, too small", nOrd)
	}
	// Lineitems average ~4 per order.
	if nLi < 2*nOrd {
		t.Errorf("lineitem/order ratio off: %d/%d", nLi, nOrd)
	}
	for _, name := range []string{"supplier", "part", "partsupp", "customer"} {
		if db.Relation(name).Len() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestGenerateTinyScaleFactors: scale factors whose partsupp target
// exceeds the distinct (part, supplier) pairs still finish, with every pair
// drawn.
func TestGenerateTinyScaleFactors(t *testing.T) {
	for _, c := range []struct {
		sf   float64
		want int // nPart × nSupp
	}{{0.0002, 40 * 3}, {0.000402, 80 * 4}} {
		db := Generate(c.sf, 1)
		if got := db.Relation("partsupp").Len(); got != c.want {
			t.Errorf("sf %v: %d partsupp rows, want %d", c.sf, got, c.want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.0005, 7)
	b := Generate(0.0005, 7)
	if a.Size() != b.Size() {
		t.Fatal("sizes differ across runs with same seed")
	}
	ra1 := a.Relation("lineitem")
	rb1 := b.Relation("lineitem")
	for i := range ra1.Tuples {
		if !ra1.Tuples[i].Identical(rb1.Tuples[i]) {
			t.Fatal("tuples differ")
		}
	}
	c := Generate(0.0005, 8)
	if c.Relation("lineitem").Tuples[0].Identical(ra1.Tuples[0]) &&
		c.Relation("lineitem").Tuples[1].Identical(ra1.Tuples[1]) &&
		c.Relation("lineitem").Tuples[2].Identical(ra1.Tuples[2]) {
		t.Error("different seeds produced identical prefixes")
	}
}

func TestConstraintsHold(t *testing.T) {
	db := testDB(t)
	if err := relation.ValidateAll(db, Constraints()); err != nil {
		t.Fatalf("generated instance violates constraints: %v", err)
	}
}

func TestAllQueriesEvaluate(t *testing.T) {
	db := testDB(t)
	for _, qs := range All() {
		r, err := engine.Eval(qs.Correct, db, nil)
		if err != nil {
			t.Fatalf("%s correct: %v", qs.Name, err)
		}
		if qs.Name != "Q21-S" && r.Len() == 0 {
			t.Errorf("%s returned no rows at sf=%v", qs.Name, testSF)
		}
		for i, w := range qs.Wrong {
			if _, err := engine.Eval(w, db, nil); err != nil {
				t.Fatalf("%s wrong[%d]: %v", qs.Name, i, err)
			}
		}
	}
}

func TestWrongVariantsDisagree(t *testing.T) {
	// Like the paper's Table 3 observation, some mutants need a larger
	// instance to be discovered: escalate the scale until each disagrees.
	scales := []float64{testSF, 0.003}
	dbs := map[float64]*relation.Database{}
	for _, qs := range All() {
		for i, w := range qs.Wrong {
			found := false
			for _, sf := range scales {
				db, ok := dbs[sf]
				if !ok {
					db = Generate(sf, 1)
					dbs[sf] = db
				}
				differs, _, _, err := core.Disagrees(qs.Correct, w, db, nil)
				if err != nil {
					t.Fatalf("%s wrong[%d]: %v", qs.Name, i, err)
				}
				if differs {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s wrong[%d] agrees with the correct query at all scales", qs.Name, i)
			}
		}
	}
}

func TestQueriesMatchAggregateShape(t *testing.T) {
	for _, qs := range All() {
		if _, ok := ra.MatchTopAggregate(qs.Correct); !ok {
			t.Errorf("%s does not match the supported aggregate shape", qs.Name)
		}
		c := ra.Classify(qs.Correct)
		if !c.Aggregate {
			t.Errorf("%s is not an aggregate query", qs.Name)
		}
	}
}

func TestAggOptFindsCounterexamples(t *testing.T) {
	db := Generate(0.0004, 3)
	for _, qs := range All() {
		for i, w := range qs.Wrong {
			p := core.Problem{Q1: qs.Correct, Q2: w, DB: db}
			differs, _, _, err := core.Disagrees(qs.Correct, w, db, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !differs {
				continue // too small to expose this mutant; skip
			}
			ce, stats, err := core.AggOpt(p, core.AggOptions{})
			if err != nil {
				t.Errorf("%s wrong[%d]: AggOpt failed: %v", qs.Name, i, err)
				continue
			}
			if err := core.Verify(p, ce); err != nil {
				t.Errorf("%s wrong[%d]: invalid counterexample: %v", qs.Name, i, err)
			}
			if ce.Size() > 25 {
				t.Errorf("%s wrong[%d]: counterexample unexpectedly large: %d tuples", qs.Name, i, ce.Size())
			}
			if ce.Size() >= db.Size() {
				t.Errorf("%s wrong[%d]: no shrinkage", qs.Name, i)
			}
			_ = stats
		}
	}
}

func TestQ18Parameterization(t *testing.T) {
	// The Figure 7 experiment: parameterizing Q18's HAVING threshold
	// shrinks the counterexample substantially.
	db := Generate(0.0006, 5)
	q18 := Q18()
	p := core.Problem{Q1: q18.Correct, Q2: q18.Wrong[0], DB: db}
	differs, _, _, err := core.Disagrees(p.Q1, p.Q2, db, nil)
	if err != nil || !differs {
		t.Skip("instance too small to expose the Q18 mutant")
	}
	ceFixed, _, err := core.AggOpt(p, core.AggOptions{})
	if err != nil {
		t.Fatalf("AggOpt: %v", err)
	}
	if err := core.Verify(p, ceFixed); err != nil {
		t.Fatal(err)
	}
	if ceFixed.Params == nil {
		t.Error("AggOpt should have parameterized the HAVING threshold")
	}
}

func TestPad9(t *testing.T) {
	if pad9(42) != "000000042" {
		t.Errorf("pad9(42) = %q", pad9(42))
	}
}
