package core

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/minones"
	"repro/internal/mutation"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/testdb"
	"repro/internal/tpch"
)

func TestAggBasicExample4(t *testing.T) {
	// Example 4: the witness-based view needs all of Mary's rows, but a
	// counterexample needs only 2 tuples (Mary + her ECON registration
	// makes Q2 return (Mary, 88) while Q1 returns nothing for her).
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB()}
	ce, stats, err := AggBasic(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ce.Size() > 2 {
		t.Errorf("size = %d, want <= 2", ce.Size())
	}
	if stats.Algorithm != "Agg-Basic" {
		t.Errorf("algorithm = %s", stats.Algorithm)
	}
}

func TestAggBasicExample5Having(t *testing.T) {
	// Example 5: with HAVING count >= 3 and fixed thresholds, the
	// counterexample must keep enough of Mary's rows (paper: all three
	// courses plus Mary → 4 tuples).
	p := Problem{Q1: testdb.HavingQ1(), Q2: testdb.HavingQ2(), DB: testdb.Example1DB()}
	ce, _, err := AggBasic(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ce.Size() != 4 {
		t.Errorf("size = %d, want 4 (t1, t4, t5, t6)", ce.Size())
	}
}

func TestAggParamExample6(t *testing.T) {
	// Example 6: parameterizing @numCS lets the counterexample shrink to 2
	// tuples (t1, t6 with numCS = 1).
	p := Problem{Q1: testdb.HavingQ1(), Q2: testdb.HavingQ2(), DB: testdb.Example1DB()}
	ce, stats, err := AggBasic(p, AggOptions{Parameterize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ce.Size() > 2 {
		t.Errorf("parameterized size = %d, want <= 2", ce.Size())
	}
	if ce.Params == nil {
		t.Error("parameterized counterexample must carry its parameter setting")
	}
	if stats.Algorithm != "Agg-Param" {
		t.Errorf("algorithm = %s", stats.Algorithm)
	}
	// The paper's Figure 7 shape: parameterization strictly reduces size.
	ceFixed, _, err := AggBasic(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() >= ceFixed.Size() {
		t.Errorf("parameterization did not shrink: %d vs %d", ce.Size(), ceFixed.Size())
	}
}

func TestAggParamPreboundParameters(t *testing.T) {
	// Queries already written with @numCS (Example 6's literal form).
	p := Problem{Q1: testdb.ParamQ1(), Q2: testdb.ParamQ2(), DB: testdb.Example1DB(),
		Params: map[string]relation.Value{"numCS": relation.Int(3)}}
	ce, _, err := AggBasic(p, AggOptions{Parameterize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ce.Size() > 2 {
		t.Errorf("size = %d, want <= 2", ce.Size())
	}
	if v, ok := ce.Params["numCS"]; !ok || v.AsFloat() > 2 {
		t.Errorf("expected relaxed numCS, got %v", ce.Params)
	}
}

func TestAggOptExample4(t *testing.T) {
	// Algorithm 3 on Example 4/7: compare the pre-aggregation queries and
	// find a 2-tuple counterexample like {t1, t6}.
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB()}
	ce, stats, err := AggOpt(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ce.Size() > 2 {
		t.Errorf("size = %d, want <= 2", ce.Size())
	}
	if stats.Algorithm != "Agg-Opt" {
		t.Errorf("algorithm = %s", stats.Algorithm)
	}
}

func TestAggOptExample5WithHaving(t *testing.T) {
	// With HAVING, AggOpt parameterizes the thresholds (Section 5.3.2) and
	// still finds a small counterexample.
	p := Problem{Q1: testdb.HavingQ1(), Q2: testdb.HavingQ2(), DB: testdb.Example1DB()}
	ce, _, err := AggOpt(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ce.Size() > 2 {
		t.Errorf("size = %d, want <= 2 with parameterization", ce.Size())
	}
}

// TestAggOptFallbackStats: with the HAVING threshold as the only
// difference, the pre-aggregation queries agree and Agg-Opt falls back to
// Agg-Basic. The returned Stats cover the whole call: the parts (Agg-Opt's
// own inner evaluation counted as raw evaluation) sum to at most TotalTime,
// which in turn fits in the call's wall time.
func TestAggOptFallbackStats(t *testing.T) {
	q2 := raparser.MustParse(`select[cnt > 3](groupby[name; avg(grade) -> avg_grade, count(course) -> cnt](
		project[name, course, grade](select[dept = 'CS'](Student join Registration))))`)
	p := Problem{Q1: testdb.HavingQ1(), Q2: q2, DB: testdb.Example1DB()}
	start := time.Now()
	ce, st, err := AggOpt(p, AggOptions{})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if st.Algorithm != "Agg-Opt(fallback)" {
		t.Fatalf("algorithm = %s, want the fallback", st.Algorithm)
	}
	if parts := st.RawEvalTime + st.ProvEvalTime + st.SolverTime; parts > st.TotalTime || st.TotalTime > wall {
		t.Errorf("raw %v + prov %v + solver %v = %v, total %v, wall %v: want parts ≤ total ≤ wall",
			st.RawEvalTime, st.ProvEvalTime, st.SolverTime, parts, st.TotalTime, wall)
	}
}

// TestAggOptFallbackBudget: a fallback to Agg-Basic that runs out of budget
// still reports the budget. Q21-S's "comparison >= changed to <=" mutant
// agrees with the reference before aggregation, so Agg-Opt falls back, and
// Agg-Basic does not finish on it within the deadline.
func TestAggOptFallbackBudget(t *testing.T) {
	qs := tpch.Q21S()
	var wrong ra.Node
	for _, m := range mutation.Mutants(qs.Correct) {
		if m.Desc == "comparison >= changed to <=" {
			wrong = m.Query
			break
		}
	}
	if wrong == nil {
		t.Fatal("Q21-S has no \"comparison >= changed to <=\" mutant")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	p := Problem{Q1: qs.Correct, Q2: wrong, DB: tpch.Generate(0.0005, 1),
		Constraints: tpch.Constraints(), Ctx: ctx}
	_, _, err := AggOpt(p, AggOptions{})
	if err == nil || !strings.Contains(err.Error(), "fallback") {
		t.Fatalf("got %v, want the fallback to Agg-Basic to fail", err)
	}
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fallback error %v does not wrap ErrBudget and context.DeadlineExceeded", err)
	}
}

func TestAggWithForeignKeys(t *testing.T) {
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB(),
		Constraints: testdb.Constraints()}
	for _, run := range []struct {
		name string
		f    func() (*Counterexample, *Stats, error)
	}{
		{"AggBasic", func() (*Counterexample, *Stats, error) { return AggBasic(p, AggOptions{}) }},
		{"AggOpt", func() (*Counterexample, *Stats, error) { return AggOpt(p, AggOptions{}) }},
	} {
		ce, _, err := run.f()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if err := Verify(p, ce); err != nil {
			t.Fatalf("%s: FK-constrained counterexample invalid: %v", run.name, err)
		}
	}
}

func TestParameterizeHaving(t *testing.T) {
	q := testdb.HavingQ1()
	pq, orig := ParameterizeHaving(q)
	if len(orig) != 1 {
		t.Fatalf("expected 1 parameter, got %v", orig)
	}
	for name, v := range orig {
		if !v.Identical(relation.Int(3)) {
			t.Errorf("original value of %s = %v, want 3", name, v)
		}
	}
	if pq.String() == q.String() {
		t.Error("query was not rewritten")
	}
	// Idempotent on queries without constant thresholds.
	q2 := testdb.AggQ1()
	pq2, orig2 := ParameterizeHaving(q2)
	if pq2 != q2 || orig2 != nil {
		t.Error("no-op expected for queries without HAVING constants")
	}
}

func TestAggBasicAgreeingQueries(t *testing.T) {
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ1(), DB: testdb.Example1DB()}
	if _, _, err := AggBasic(p, AggOptions{}); err == nil {
		t.Error("agreeing aggregate queries should error")
	}
}

// TestForEachWitnessModelStartsAtOptimum: Agg-Opt's first candidate is the
// min-ones optimum of the witness formula, also when the CDCL solver's
// first model is larger; later candidates are distinct models.
func TestForEachWitnessModelStartsAtOptimum(t *testing.T) {
	// (1 ∨ 2) ∧ (1 ∨ 3) ∧ (1 ∨ 4): the optimum is {1}.
	prov := boolexpr.And(
		boolexpr.Or(boolexpr.Var(1), boolexpr.Var(2)),
		boolexpr.Or(boolexpr.Var(1), boolexpr.Var(3)),
		boolexpr.Or(boolexpr.Var(1), boolexpr.Var(4)))
	b, counted, varToID := buildCNF(prov, nil)

	s := sat.New()
	s.EnsureVars(b.NumVars)
	for _, c := range b.Clauses {
		if err := s.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	if s.Solve() != sat.Sat {
		t.Fatal("formula unsatisfiable")
	}
	cdcl := 0
	for _, v := range counted {
		if s.Value(v) {
			cdcl++
		}
	}
	if cdcl <= 1 {
		t.Fatalf("the CDCL solver's first model has %d tuples; the formula no longer tests the minimized start", cdcl)
	}

	var got [][]int
	forEachWitnessModel(b, counted, varToID, 3, minones.Options{}, func(ids []int) bool {
		got = append(got, ids)
		return false
	})
	if len(got) != 3 {
		t.Fatalf("got %d models, want 3", len(got))
	}
	if len(got[0]) != 1 || got[0][0] != 1 {
		t.Errorf("first model %v, want the optimum [1]", got[0])
	}
	seen := map[string]bool{}
	for _, ids := range got {
		sort.Ints(ids)
		key := string(idsKey(ids, nil))
		if seen[key] {
			t.Errorf("model %v yielded twice", ids)
		}
		seen[key] = true
	}
}

// TestAggOptAnswerHoldsOnlyRewrites: an answer carries queries of its own
// only where the HAVING parameterization rewrote one; otherwise readers fall
// back to the problem's, and the answer keeps no query tree alive.
func TestAggOptAnswerHoldsOnlyRewrites(t *testing.T) {
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB()}
	ce, _, err := AggOpt(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ce.Q1 != nil || ce.Q2 != nil {
		t.Errorf("answer to queries without HAVING holds queries %v and %v", ce.Q1, ce.Q2)
	}
	qs := tpch.Q18()
	p = Problem{Q1: qs.Correct, Q2: qs.Wrong[0], DB: tpch.Generate(0.0005, 1), Constraints: tpch.Constraints()}
	ce, st, err := AggOpt(p, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != "Agg-Opt" {
		t.Fatalf("Q18 answered by %s, want Agg-Opt", st.Algorithm)
	}
	if ce.Q1 == nil || ce.Q2 == nil || ce.Q1 == p.Q1 || ce.Q2 == p.Q2 {
		t.Errorf("Q18 answer holds %v and %v, want both parameterized rewrites", ce.Q1, ce.Q2)
	}
	if err := Verify(p, ce); err != nil {
		t.Errorf("Q18 answer does not verify: %v", err)
	}
}
