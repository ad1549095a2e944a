package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// TestCountSemiringSaturates: the counting semiring saturates instead of
// wrapping (a wrapped-to-zero count would prune a live tuple).
func TestCountSemiringSaturates(t *testing.T) {
	if got := Counting.Plus(math.MaxInt64, 5); got != math.MaxInt64 {
		t.Errorf("Plus overflow: got %d", got)
	}
	if got := Counting.Times(3<<40, 3<<40); got != math.MaxInt64 {
		t.Errorf("Times overflow: got %d", got)
	}
	if got := Counting.Times(0, math.MaxInt64); got != 0 {
		t.Errorf("Times zero: got %d", got)
	}
	if got := Counting.Plus(2, 3); got != 5 {
		t.Errorf("Plus small: got %d", got)
	}
	if got := Counting.Times(6, 7); got != 42 {
		t.Errorf("Times small: got %d", got)
	}
}

// TestCountOverflowKeepsSupport is the end-to-end regression: a 65-way
// cross product of a tuple with 2 derivations has 2^65 derivations, which
// wraps int64 to exactly 0 — before saturation the tuple was pruned from
// the support as "zero count".
func TestCountOverflowKeepsSupport(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindString)))
	db.Insert("R", relation.NewTuple(relation.String("x")))
	db.Insert("R", relation.NewTuple(relation.String("x")))
	q := ra.Node(&ra.Rename{As: "r1", In: &ra.Rel{Name: "R"}})
	for i := 2; i <= 65; i++ {
		q = &ra.Join{L: q, R: &ra.Rename{As: fmt.Sprintf("r%d", i), In: &ra.Rel{Name: "R"}}}
	}
	r, err := Run[Count](Counting, q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("support size = %d, want 1 (overflow pruned the tuple?)", r.Len())
	}
	if r.Anns[0] != math.MaxInt64 {
		t.Errorf("count = %d, want saturation at MaxInt64", r.Anns[0])
	}
}
