package ratest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/testdb"
)

const example1Text = `
# The paper's Figure 1 instance.
relation Student(name: string, major: string)
Mary, CS
John, ECON
Jesse, CS

relation Registration(name: string, course: string, dept: string, grade: int)
Mary, '216', CS, 100
Mary, '230', CS, 75
Mary, '208D', ECON, 95
John, '316', CS, 90
John, '208D', ECON, 88
Jesse, '216', CS, 95
Jesse, '316', CS, 90
Jesse, '330', CS, 85

key Student(name)
key Registration(name, course)
fk Registration(name) -> Student(name)
`

func TestLoadDatabase(t *testing.T) {
	db, cs, err := LoadDatabase(strings.NewReader(example1Text))
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 11 {
		t.Fatalf("size = %d, want 11", db.Size())
	}
	if len(cs) != 3 {
		t.Fatalf("constraints = %d, want 3", len(cs))
	}
	if db.Relation("Registration").Schema.Attrs[3].Type != KindInt {
		t.Error("grade should be int")
	}
}

func TestLoadDatabaseErrors(t *testing.T) {
	bad := []string{
		"Mary, CS",                             // tuple before relation
		"relation R(x)",                        // missing type
		"relation R(x: blob)",                  // unknown type
		"relation R(x: int)\n1, 2",             // arity mismatch
		"relation R(x: string)\n'unterminated", // bad quote
		"fk R(x) Student(y)",                   // missing arrow
	}
	for _, src := range bad {
		if _, _, err := LoadDatabase(strings.NewReader(src)); err == nil {
			t.Errorf("LoadDatabase(%q) should fail", src)
		}
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	db, cs, err := LoadDatabase(strings.NewReader(example1Text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpDatabase(&buf, db, cs); err != nil {
		t.Fatal(err)
	}
	db2, cs2, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatalf("reload: %v\n%s", err, buf.String())
	}
	if db2.Size() != db.Size() || len(cs2) != len(cs) {
		t.Errorf("round trip: size %d->%d constraints %d->%d", db.Size(), db2.Size(), len(cs), len(cs2))
	}
}

func TestExplainEndToEnd(t *testing.T) {
	db, cs, err := LoadDatabase(strings.NewReader(example1Text))
	if err != nil {
		t.Fatal(err)
	}
	q1 := MustParseQuery(`
		project[name, major](select[dept = 'CS'](Student join Registration))
		diff
		project[s.name, s.major](
			select[s.name = r1.name and s.name = r2.name and r1.course <> r2.course
			       and r1.dept = 'CS' and r2.dept = 'CS']
			(rename[s](Student) cross rename[r1](Registration) cross rename[r2](Registration)))`)
	q2 := MustParseQuery(`project[name, major](select[dept = 'CS'](Student join Registration))`)

	eq, err := Equivalent(q1, q2, db, nil)
	if err != nil || eq {
		t.Fatalf("queries should disagree on D (eq=%v, err=%v)", eq, err)
	}
	ce, stats, err := Explain(q1, q2, db, &Options{Constraints: cs})
	if err != nil {
		t.Fatal(err)
	}
	if ce.Size() != 3 {
		t.Errorf("counterexample size = %d, want 3", ce.Size())
	}
	if stats.Algorithm != "OptSigma" {
		t.Errorf("algorithm = %s", stats.Algorithm)
	}
	if err := Verify(q1, q2, db, &Options{Constraints: cs}, ce); err != nil {
		t.Errorf("Verify: %v", err)
	}
	out := FormatCounterexample(q1, q2, ce, nil)
	for _, want := range []string{"3 tuples", "Student", "Registration", "result"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainAlgorithms(t *testing.T) {
	db := testdb.Example1DB()
	q1, q2 := testdb.Q1(), testdb.Q2()
	for _, algo := range []string{"auto", "optsigma", "basic", "spjudstar"} {
		ce, _, err := Explain(q1, q2, db, &Options{Algorithm: algo})
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if ce.Size() != 3 {
			t.Errorf("%s: size = %d, want 3", algo, ce.Size())
		}
	}
	// Aggregate algorithms.
	for _, algo := range []string{"aggbasic", "aggparam", "aggopt"} {
		ce, _, err := Explain(testdb.AggQ1(), testdb.AggQ2(), db, &Options{Algorithm: algo})
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if err := Verify(testdb.AggQ1(), testdb.AggQ2(), db, nil, ce); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	if _, _, err := Explain(q1, q2, db, &Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm should error")
	}
}

// EnumerateSmallest runs under the same row budget as Explain: with
// MaxRows 2 on the paper's Example 1 both fail on the budget instead of
// EnumerateSmallest returning counterexamples.
func TestEnumerateSmallestRowBudget(t *testing.T) {
	db := testdb.Example1DB()
	q1, q2 := testdb.Q1(), testdb.Q2()
	opts := &Options{MaxRows: 2}
	if _, _, err := Explain(q1, q2, db, opts); !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("Explain with MaxRows 2: got %v, want an error wrapping engine.ErrRowBudget", err)
	}
	ces, err := EnumerateSmallest(q1, q2, db, opts, 4)
	if !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("EnumerateSmallest with MaxRows 2: got %d counterexamples, error %v; want an error wrapping engine.ErrRowBudget", len(ces), err)
	}
	if ces, err := EnumerateSmallest(q1, q2, db, nil, 4); err != nil || len(ces) != 4 {
		t.Fatalf("unbudgeted EnumerateSmallest: %d counterexamples, error %v; want 4", len(ces), err)
	}
}

func TestEvalFacade(t *testing.T) {
	db := testdb.Example1DB()
	r, err := Eval(MustParseQuery("project[name](Student)"), db, nil)
	if err != nil || r.Len() != 3 {
		t.Errorf("Eval = %v, %v", r, err)
	}
}

func TestParseQueryError(t *testing.T) {
	if _, err := ParseQuery("select["); err == nil {
		t.Error("bad query should fail")
	}
}
