package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// TestHashJoinRowBudget: the hash join's own row-budget check aborts an
// equi-join whose output exceeds MaxIntermediateRows. The planner is off, so
// it is the join that trips and not the planner's up-front refusal
// (TestRowBudget covers only cross products).
func TestHashJoinRowBudget(t *testing.T) {
	savedRows := MaxIntermediateRows
	MaxIntermediateRows = 10
	t.Cleanup(func() { MaxIntermediateRows = savedRows })
	db := joinDB(200)
	q := &ra.Join{
		L:    &ra.Rename{As: "x", In: &ra.Rel{Name: "L"}},
		R:    &ra.Rename{As: "y", In: &ra.Rel{Name: "R"}},
		Cond: ra.Eq("x.k", "y.k"),
	}
	_, err := RunOpts[bool](Set, q, db, nil, Options{NoPlan: true})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
}

// TestRenameCopyOnWrite is the regression for the aliasing bug: the output
// of Rename shared the input's tuple/annotation slices at full capacity and
// its hash index, so an Add on the renamed relation could scribble on the
// input's backing arrays and corrupt its index under a different schema.
func TestRenameCopyOnWrite(t *testing.T) {
	in := NewRel[Count](relation.NewSchema(relation.Attr("a", relation.KindInt)))
	in.Add(Counting, relation.NewTuple(relation.Int(1)), 1)
	in.Add(Counting, relation.NewTuple(relation.Int(2)), 1)

	out := renameRel(in, "x")
	if got := out.Schema.Attrs[0].Name; got != "x.a" {
		t.Fatalf("renamed schema attr = %q, want x.a", got)
	}
	// ⊕-merge first: Add overwrites the annotation slot in place, so this
	// must not write through to the input's annotation array.
	out.Add(Counting, relation.NewTuple(relation.Int(2)), 5)
	if i := in.Lookup(relation.NewTuple(relation.Int(2))); in.Anns[i] != 1 {
		t.Errorf("merge on the renamed relation mutated the input's annotation: %v", in.Anns)
	}
	out.Add(Counting, relation.NewTuple(relation.Int(3)), 1)

	if in.Len() != 2 {
		t.Fatalf("input length changed to %d after mutating the rename", in.Len())
	}
	if in.Lookup(relation.NewTuple(relation.Int(3))) >= 0 {
		t.Error("tuple added to the renamed relation leaked into the input's index")
	}
	if i := in.Lookup(relation.NewTuple(relation.Int(2))); i != 1 || in.Anns[i] != 1 {
		t.Errorf("input annotation mutated: pos %d anns %v", i, in.Anns)
	}
	if out.Len() != 3 {
		t.Errorf("renamed relation length = %d, want 3", out.Len())
	}
	if j := out.Lookup(relation.NewTuple(relation.Int(2))); j != 1 || out.Anns[j] != 6 {
		t.Errorf("renamed relation merge wrong: pos %d anns %v", j, out.Anns)
	}
}

// TestCrossExceedsBudget checks the overflow-proof cross-product budget
// test, including sizes whose product overflows int.
func TestCrossExceedsBudget(t *testing.T) {
	const big = math.MaxInt / 2
	cases := []struct {
		l, r, budget int
		want         bool
	}{
		{0, big, 1_000_000, false},
		{big, 0, 1_000_000, false},
		{1000, 1000, 1_000_000, false},
		{1000, 1001, 1_000_000, true},
		{big, big, 1_000_000, true}, // l*r would overflow int
		{big, 2, math.MaxInt, false},
		{big, 3, math.MaxInt, true}, // product overflows int itself
		{1, 1_000_000, 1_000_000, false},
		{2, 1_000_000, 1_000_000, true},
	}
	for _, c := range cases {
		if got := crossExceedsBudget(c.l, c.r, c.budget); got != c.want {
			t.Errorf("crossExceedsBudget(%d, %d, %d) = %v, want %v", c.l, c.r, c.budget, got, c.want)
		}
	}
}
