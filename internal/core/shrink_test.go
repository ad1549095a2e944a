package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// courseProblem builds a disagreeing SPJUD pair over a course-shaped
// instance (the same Student/Registration schema and q4-vs-q6 query pair as
// internal/course, generated locally to avoid the core ↔ course import
// cycle) — the workload whose shrink loops the delta-incremental path
// targets.
func courseProblem(t testing.TB, size int) Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db := relation.NewDatabase()
	db.CreateRelation("Student", relation.NewSchema(
		relation.Attr("name", relation.KindString),
		relation.Attr("major", relation.KindString)))
	db.CreateRelation("Registration", relation.NewSchema(
		relation.Attr("name", relation.KindString),
		relation.Attr("course", relation.KindString),
		relation.Attr("dept", relation.KindString),
		relation.Attr("grade", relation.KindInt)))
	depts := []string{"CS", "ECON", "MATH"}
	nStudents := size / 5
	if nStudents < 3 {
		nStudents = 3
	}
	for i := 0; i < nStudents; i++ {
		db.Insert("Student", relation.NewTuple(
			relation.String(fmt.Sprintf("s%04d", i)),
			relation.String(depts[rng.Intn(len(depts))])))
	}
	type regKey struct{ s, c string }
	seen := map[regKey]bool{}
	for total, i := nStudents, 0; total < size; i = (i + 1) % nStudents {
		name := fmt.Sprintf("s%04d", i)
		dept := depts[rng.Intn(len(depts))]
		course := fmt.Sprintf("%s%03d", dept, 100+rng.Intn(200))
		if seen[regKey{name, course}] {
			continue
		}
		seen[regKey{name, course}] = true
		db.Insert("Registration", relation.NewTuple(
			relation.String(name), relation.String(course), relation.String(dept),
			relation.Int(int64(60+rng.Intn(41)))))
		total++
	}
	// "CS but not ECON" vs "only CS": same schema, different answers.
	q1 := raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))
		diff project[name, major](select[dept = 'ECON'](Student join Registration))`)
	q2 := raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))
		diff project[name, major](select[dept <> 'CS'](Student join Registration))`)
	p := Problem{Q1: q1, Q2: q2, DB: db}
	differs, _, _, err := Disagrees(p.Q1, p.Q2, p.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !differs {
		t.Fatal("course-shaped q4 vs q6 should disagree")
	}
	return p
}

// courseConstraints mirrors course.Constraints for the local schema.
func courseConstraints() []relation.Constraint {
	return []relation.Constraint{
		relation.Key{Relation: "Student", Attrs: []string{"name"}},
		relation.Key{Relation: "Registration", Attrs: []string{"name", "course"}},
		relation.ForeignKey{ChildRel: "Registration", ChildAttrs: []string{"name"},
			ParentRel: "Student", ParentAttrs: []string{"name"}},
	}
}

// TestShrinkGreedy: the greedy delta-incremental shrink produces a verified,
// 1-minimal counterexample on the course workload.
func TestShrinkGreedy(t *testing.T) {
	p := courseProblem(t, 300)
	p.Constraints = courseConstraints()
	ce, stats, err := ShrinkGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("shrunk counterexample invalid: %v", err)
	}
	if ce.Size() >= p.DB.Size() {
		t.Fatalf("no shrinkage: %d of %d tuples kept", ce.Size(), p.DB.Size())
	}
	if stats.WitnessSize != ce.Size() {
		t.Fatalf("stats.WitnessSize=%d, ce.Size()=%d", stats.WitnessSize, ce.Size())
	}
	// 1-minimality: removing any single kept tuple breaks disagreement or
	// the constraints.
	keep := map[relation.TupleID]bool{}
	for _, id := range ce.IDs {
		keep[id] = true
	}
	for _, id := range ce.IDs {
		keep[id] = false
		sub := p.DB.Subinstance(keep)
		differs, _, _, err := Disagrees(p.Q1, p.Q2, sub, nil)
		if err == nil && differs && constraintsHold(p, sub) {
			t.Fatalf("not 1-minimal: tuple %v is removable", id)
		}
		keep[id] = true
	}
}

// TestShrinkGreedyRespectsForeignKeys: kept Registration tuples must keep
// their Student parents — the FK guard may never strand a child.
func TestShrinkGreedyRespectsForeignKeys(t *testing.T) {
	p := courseProblem(t, 250)
	p.Constraints = courseConstraints()
	ce, _, err := ShrinkGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Constraints {
		if err := c.Validate(ce.DB); err != nil {
			t.Fatalf("constraint %s violated: %v", c, err)
		}
	}
}

// TestShrinkGreedyMultiFK: a child constrained by two foreign keys needs a
// live parent under each of them — the guard must count parents per FK, not
// pooled (a pooled count of 2 would let the only parent under one FK go).
func TestShrinkGreedyMultiFK(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("P1", relation.NewSchema(relation.Attr("k", relation.KindInt)))
	db.CreateRelation("P2", relation.NewSchema(relation.Attr("k", relation.KindInt)))
	db.CreateRelation("C", relation.NewSchema(
		relation.Attr("k1", relation.KindInt),
		relation.Attr("k2", relation.KindInt)))
	db.Insert("P1", relation.NewTuple(relation.Int(1)))
	db.Insert("P1", relation.NewTuple(relation.Int(2)))
	db.Insert("P2", relation.NewTuple(relation.Int(1)))
	db.Insert("C", relation.NewTuple(relation.Int(1), relation.Int(1)))
	p := Problem{
		// Disagree exactly while C is nonempty: deleting C's tuple is never
		// accepted, so its parents must stay pinned under both FKs.
		Q1: raparser.MustParse(`project[k1](C)`),
		Q2: raparser.MustParse(`project[k1](select[k1 < 0](C))`),
		DB: db,
		Constraints: []relation.Constraint{
			relation.ForeignKey{ChildRel: "C", ChildAttrs: []string{"k1"}, ParentRel: "P1", ParentAttrs: []string{"k"}},
			relation.ForeignKey{ChildRel: "C", ChildAttrs: []string{"k2"}, ParentRel: "P2", ParentAttrs: []string{"k"}},
		},
	}
	ce, _, err := ShrinkGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, ce); err != nil {
		t.Fatalf("invalid counterexample: %v", err)
	}
	// The child plus its parent under each FK must survive; the unused P1
	// tuple (id 2) must not.
	want := []relation.TupleID{1, 3, 4}
	if len(ce.IDs) != len(want) {
		t.Fatalf("kept %v, want %v", ce.IDs, want)
	}
	for i, id := range want {
		if ce.IDs[i] != id {
			t.Fatalf("kept %v, want %v", ce.IDs, want)
		}
	}
}

// TestShrinkGreedyFallbackMatches: the no-prepared-state fallback loop
// produces the same counterexample as the delta-incremental loop (both are
// deterministic first-fit greedy over ascending ids).
func TestShrinkGreedyFallbackMatches(t *testing.T) {
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: testdb.Example1DB(), Constraints: testdb.Constraints()}
	ce, _, err := ShrinkGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		t.Fatal(err)
	}
	kept, _, err := shrinkGreedyFallback(p, newFKGuard(fk))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(ce.IDs) {
		t.Fatalf("fallback kept %d tuples, delta loop kept %d", len(kept), len(ce.IDs))
	}
	for i, id := range kept {
		if ce.IDs[i] != id {
			t.Fatalf("kept id %d: fallback %v, delta loop %v", i, id, ce.IDs[i])
		}
	}
}

// TestEnumerateSmallestUnchangedByChecker: EnumerateSmallest's results on
// the running example stay the same whichever path checks its candidates
// (same smallest size, all verified).
func TestEnumerateSmallestUnchangedByChecker(t *testing.T) {
	p := example1Problem()
	p.Constraints = testdb.Constraints()
	ces, err := EnumerateSmallest(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) == 0 {
		t.Fatal("no counterexamples enumerated")
	}
	size := ces[0].Size()
	for _, ce := range ces {
		if ce.Size() != size {
			t.Errorf("non-uniform smallest size: %d vs %d", ce.Size(), size)
		}
		if err := Verify(p, ce); err != nil {
			t.Errorf("invalid counterexample: %v", err)
		}
	}
}
