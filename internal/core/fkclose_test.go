package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// fkClose's output is fingerprinted (idsKey) and fed into dedup maps by
// the SPJUD* odometer, so two calls on the same id set must return the
// same slice regardless of input order. These are the regressions for the
// bug where the no-FK early return passed map-iteration order through,
// which made equal unions look distinct — duplicate solver work and a
// nondeterministic tie-break order among equal-size candidates.

func TestFKCloseSortedWithoutFKs(t *testing.T) {
	db := relation.NewDatabase()
	rng := rand.New(rand.NewSource(11))
	ids := []int{9, 3, 14, 0, 7, 21, 5}
	fk, err := newFKIndex(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fkClose(append([]int(nil), ids...), fk)
	if !sort.IntsAreSorted(want) {
		t.Fatalf("fkClose output not sorted: %v", want)
	}
	for trial := 0; trial < 10; trial++ {
		perm := append([]int(nil), ids...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, _ := fkClose(perm, fk)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v vs %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: permuted input changed output: %v vs %v", trial, got, want)
			}
		}
	}
}

func TestFKClosePermutationInvariantKey(t *testing.T) {
	// With FKs, the closure must also be order-independent: same id set in
	// any order → same idsKey fingerprint.
	db := relation.NewDatabase()
	db.CreateRelation("P", relation.NewSchema(relation.Attr("k", relation.KindInt)))
	db.CreateRelation("C", relation.NewSchema(relation.Attr("k", relation.KindInt)))
	for i := 0; i < 4; i++ {
		db.Insert("P", relation.NewTuple(relation.Int(int64(i))))
		db.Insert("C", relation.NewTuple(relation.Int(int64(i))))
	}
	fks := []relation.ForeignKey{{ChildRel: "C", ChildAttrs: []string{"k"},
		ParentRel: "P", ParentAttrs: []string{"k"}}}

	// The C tuples' ids follow the P tuples'.
	var cids []int
	for _, id := range db.Relation("C").IDs {
		cids = append(cids, int(id))
	}
	fk, err := newFKIndex(db, fks)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := fkClose(append([]int(nil), cids...), fk)
	if !sort.IntsAreSorted(base) {
		t.Fatalf("closure not sorted: %v", base)
	}
	wantKey := string(idsKey(base, nil))
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		perm := append([]int(nil), cids...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		closed, _ := fkClose(perm, fk)
		if got := string(idsKey(closed, nil)); got != wantKey {
			t.Fatalf("trial %d: permuted input changed idsKey: %v vs %v", trial, closed, base)
		}
	}
}

// TestFKCloseKeepsParentInSet: a child whose parents include a tuple already
// in the set adds no second parent (A.x is not unique here).
func TestFKCloseKeepsParentInSet(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("A", relation.NewSchema(relation.Attr("x", relation.KindInt), relation.Attr("y", relation.KindInt)))
	db.CreateRelation("B", relation.NewSchema(relation.Attr("x", relation.KindInt)))
	a0 := db.Insert("A", relation.NewTuple(relation.Int(1), relation.Int(0)))
	a1 := db.Insert("A", relation.NewTuple(relation.Int(1), relation.Int(1)))
	b := db.Insert("B", relation.NewTuple(relation.Int(1)))
	fk, err := newFKIndex(db, []relation.ForeignKey{{ChildRel: "B", ChildAttrs: []string{"x"}, ParentRel: "A", ParentAttrs: []string{"x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, chose := fkClose([]int{int(b), int(a1)}, fk); len(got) != 2 || chose {
		t.Errorf("closure of {a1, b} = %v (chose %v), want no second parent and no choice", got, chose)
	}
	if got, chose := fkClose([]int{int(b)}, fk); len(got) != 2 || got[0] != int(a0) || !chose {
		t.Errorf("closure of {b} = %v (chose %v), want b and its first parent %d, chosen among two", got, chose, a0)
	}
}

// TestClosureWithholdsOptimal: when the FK closure adds a parent to the
// smallest minterm, a larger minterm may need none, so the poly-time
// algorithms must not claim optimality. Here t = (1) has the minterms {b}
// and {a}; {b} comes first but needs its parent a, while {a} alone is a
// witness. SPJUDStarSWP closes every union of minterms, and A.x is a key,
// so each closure adds a sole parent: its answer stays proven smallest.
func TestClosureWithholdsOptimal(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("B", relation.NewSchema(relation.Attr("x", relation.KindInt)))
	db.CreateRelation("A", relation.NewSchema(relation.Attr("x", relation.KindInt)))
	db.Insert("B", relation.NewTuple(relation.Int(1)))
	db.Insert("A", relation.NewTuple(relation.Int(1)))
	fk := relation.ForeignKey{ChildRel: "B", ChildAttrs: []string{"x"}, ParentRel: "A", ParentAttrs: []string{"x"}}
	q1 := &ra.Union{L: &ra.Project{Cols: []string{"x"}, In: &ra.Rel{Name: "B"}}, R: &ra.Project{Cols: []string{"x"}, In: &ra.Rel{Name: "A"}}}
	q2 := &ra.Project{Cols: []string{"x"}, In: &ra.Select{
		Pred: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "x"}, R: &ra.Const{Val: relation.Int(5)}}, In: &ra.Rel{Name: "A"}}}
	p := Problem{Q1: q1, Q2: q2, DB: db, Constraints: []relation.Constraint{fk}}
	for name, run := range map[string]func(Problem) (*Counterexample, *Stats, error){
		"MonotoneSWP": func(p Problem) (*Counterexample, *Stats, error) { return MonotoneSWP(p, 0) },
		"JUStarSWP":   JUStarSWP,
	} {
		ce, stats, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Optimal && ce.Size() != bruteSWP(p, ce.Witness) {
			t.Errorf("%s: %d tuples reported Optimal, brute force = %d", name, ce.Size(), bruteSWP(p, ce.Witness))
		}
	}
	ce, stats, err := SPJUDStarSWP(p, 0)
	if err != nil {
		t.Fatalf("SPJUDStarSWP: %v", err)
	}
	if want := bruteSWP(p, ce.Witness); !stats.Optimal || ce.Size() != want {
		t.Errorf("SPJUDStarSWP: %d tuples (Optimal %v), want %d reported Optimal", ce.Size(), stats.Optimal, want)
	}
}

// TestClosureChoiceWithholdsOptimal: when the closure must choose among a
// child's parents, its choice may cost more than the one a witness makes,
// so SPJUDStarSWP must not claim optimality. Here t = (1) has the one
// minterm {b, c6}; b's parents are a0 (which needs c5) and a1 (which needs
// c6, already present). The closure takes a0, four tuples against the
// three of {b, c6, a1}.
func TestClosureChoiceWithholdsOptimal(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("C", relation.NewSchema(relation.Attr("w", relation.KindInt)))
	db.CreateRelation("A", relation.NewSchema(relation.Attr("x", relation.KindInt), relation.Attr("w", relation.KindInt)))
	db.CreateRelation("B", relation.NewSchema(relation.Attr("x", relation.KindInt)))
	db.Insert("C", relation.NewTuple(relation.Int(5)))
	db.Insert("C", relation.NewTuple(relation.Int(6)))
	db.Insert("A", relation.NewTuple(relation.Int(1), relation.Int(5)))
	db.Insert("A", relation.NewTuple(relation.Int(1), relation.Int(6)))
	db.Insert("B", relation.NewTuple(relation.Int(1)))
	fks := []relation.Constraint{
		relation.ForeignKey{ChildRel: "B", ChildAttrs: []string{"x"}, ParentRel: "A", ParentAttrs: []string{"x"}},
		relation.ForeignKey{ChildRel: "A", ChildAttrs: []string{"w"}, ParentRel: "C", ParentAttrs: []string{"w"}},
	}
	q1 := &ra.Project{Cols: []string{"x"}, In: &ra.Join{L: &ra.Rel{Name: "B"}, R: &ra.Select{
		Pred: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "w"}, R: &ra.Const{Val: relation.Int(6)}}, In: &ra.Rel{Name: "C"}}}}
	q2 := &ra.Project{Cols: []string{"x"}, In: &ra.Select{
		Pred: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "x"}, R: &ra.Const{Val: relation.Int(2)}}, In: &ra.Rel{Name: "B"}}}
	p := Problem{Q1: q1, Q2: q2, DB: db, Constraints: fks}
	ce, stats, err := SPJUDStarSWP(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSWP(p, ce.Witness); ce.Size() != want+1 || stats.Optimal {
		t.Errorf("SPJUDStarSWP: %d tuples (Optimal %v), want %d and no Optimal claim", ce.Size(), stats.Optimal, want+1)
	}
}
