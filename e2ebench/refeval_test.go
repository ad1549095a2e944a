package main

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// names renders the first column of every row, sorted.
func names(t *testing.T, q ra.Node, db *relation.Database) string {
	t.Helper()
	r, err := refEval(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range r.rows {
		out = append(out, row[0].AsString())
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func rows(t *testing.T, q ra.Node, db *relation.Database) string {
	t.Helper()
	r, err := refEval(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range r.rows {
		out = append(out, row.String())
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// TestExample1 reproduces the paper's Example 1: Q1 (exactly one CS course)
// and Q2 (some CS course) on the Figure 1 instance, and on the smallest
// counterexample {t1, t4, t5}.
func TestExample1(t *testing.T) {
	db := testdb.Example1DB()
	if got, want := rows(t, testdb.Q1(), db), "(John, ECON)"; got != want {
		t.Errorf("Q1(D) = %s, want %s", got, want)
	}
	if got, want := rows(t, testdb.Q2(), db), "(Jesse, CS) (John, ECON) (Mary, CS)"; got != want {
		t.Errorf("Q2(D) = %s, want %s", got, want)
	}
	sub := db.Subinstance(map[relation.TupleID]bool{1: true, 4: true, 5: true})
	if got := rows(t, testdb.Q1(), sub); got != "" {
		t.Errorf("Q1({t1,t4,t5}) = %s, want empty", got)
	}
	if got, want := rows(t, testdb.Q2(), sub), "(Mary, CS)"; got != want {
		t.Errorf("Q2({t1,t4,t5}) = %s, want %s", got, want)
	}
}

// TestExample5 checks group-by with HAVING: at least three CS courses
// (Jesse) against at least three courses of any department (Mary, Jesse).
func TestExample5(t *testing.T) {
	db := testdb.Example1DB()
	if got, want := names(t, testdb.HavingQ1(), db), "Jesse"; got != want {
		t.Errorf("HavingQ1(D) = %s, want %s", got, want)
	}
	if got, want := names(t, testdb.HavingQ2(), db), "Jesse,Mary"; got != want {
		t.Errorf("HavingQ2(D) = %s, want %s", got, want)
	}
}

// TestParams binds the Example 6 @-parameter.
func TestParams(t *testing.T) {
	db := testdb.Example1DB()
	for _, c := range []struct {
		n    int64
		want string
	}{{3, "Jesse"}, {2, "Jesse,Mary"}} {
		r, err := refEval(testdb.ParamQ1(), db, map[string]relation.Value{"numCS": relation.Int(c.n)})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range r.rows {
			got = append(got, row[0].AsString())
		}
		sort.Strings(got)
		if strings.Join(got, ",") != c.want {
			t.Errorf("ParamQ1(@numCS=%d) = %v, want %s", c.n, got, c.want)
		}
	}
}

// TestAgreesWithEngine compares the reference evaluator with the engine on
// every query the workloads run at seed 3, built by the benchmark's own
// code: both queries of every course-explain and tpch-agg pair, mutants
// included, and every submission classroom sessions grade. Queries with
// HAVING thresholds are compared again in the parameterized form that
// Agg-Opt and Agg-Basic return and the answer checks evaluate
// (core.ParameterizeHaving), under the original parameter values. The two
// evaluators share no evaluation code, so agreement checks both.
func TestAgreesWithEngine(t *testing.T) {
	for _, s := range []suite{courseSuite(3), tpchSuite(3)} {
		db := s.generate()
		pairs, err := s.bank(db)
		if err != nil {
			t.Fatal(err)
		}
		var qs []string
		for _, p := range pairs {
			qs = append(qs, p.q1, p.q2)
		}
		compare(t, db, qs)
	}

	db := course.GenerateDB(classroomSize, 3)
	found, err := course.DiscoveredWrong(db, course.WrongQueryBank(db, classroomPerQuestion))
	if err != nil {
		t.Fatal(err)
	}
	var qs []string
	for _, q := range course.Questions() {
		qs = append(qs, q.Correct.String())
	}
	for _, w := range found {
		qs = append(qs, w.Query.String())
	}
	compare(t, db, qs)
}

func compare(t *testing.T, db *relation.Database, qs []string) {
	t.Helper()
	seen := map[string]bool{}
	for _, text := range qs {
		if seen[text] {
			continue
		}
		seen[text] = true
		q, err := raparser.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		agree(t, db, q, nil)
		if pq, params := core.ParameterizeHaving(q); params != nil {
			agree(t, db, pq, params)
		}
	}
}

func agree(t *testing.T, db *relation.Database, q ra.Node, params map[string]relation.Value) {
	t.Helper()
	want, err := engine.Eval(q, db, params)
	if err != nil {
		t.Fatalf("engine: %v on %s", err, q)
	}
	got, err := refEval(q, db, params)
	if err != nil {
		t.Fatalf("reference: %v on %s", err, q)
	}
	ref := &refRel{rows: dedup(want.Tuples)}
	if len(got.minus(ref)) != 0 || len(ref.minus(got)) != 0 {
		t.Errorf("%s %v: reference has %d rows, engine %d", q, params, len(got.rows), len(ref.rows))
	}
}
