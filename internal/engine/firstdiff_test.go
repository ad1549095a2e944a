package engine

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// crossDB holds R(x) and S(y), 20 tuples each, so R cross S has 400 pairs.
func crossDB() *relation.Database {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("x", relation.KindInt)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("y", relation.KindInt)))
	for i := 0; i < 20; i++ {
		db.Insert("R", relation.NewTuple(relation.Int(int64(i))))
		db.Insert("S", relation.NewTuple(relation.Int(int64(i))))
	}
	return db
}

// Two queries that prepare to one plan agree without any evaluation: the
// Stop hook, polled once per operator evaluated, is never called.
func TestFirstDiffOnePlanEvaluatesNothing(t *testing.T) {
	q := func() ra.Node {
		return &ra.Project{Cols: []string{"x"}, In: &ra.Join{L: &ra.Rel{Name: "R"}, R: &ra.Rel{Name: "S"}}}
	}
	polls := 0
	got, _, err := FirstDiff(q(), q(), crossDB(), nil, Options{Stop: func() error { polls++; return nil }})
	if err != nil || got != nil || polls != 0 {
		t.Fatalf("FirstDiff on one plan: %v, %v after %d operators, want nil after none", got, err, polls)
	}
}

// A witness the stream reaches within the row budget is found although Q2's
// whole result exceeds it; a stream whose outputs all lie in Q1 stops at
// the budget.
func TestFirstDiffStreamRowBudget(t *testing.T) {
	db := crossDB()
	cross := func() ra.Node {
		return &ra.Project{Cols: []string{"x"}, In: &ra.Join{L: &ra.Rel{Name: "R"}, R: &ra.Rel{Name: "S"}}}
	}
	positive := &ra.Project{Cols: []string{"x"}, In: &ra.Select{
		Pred: &ra.Cmp{Op: ra.GT, L: &ra.AttrRef{Name: "x"}, R: &ra.Const{Val: relation.Int(0)}}, In: &ra.Rel{Name: "R"}}}
	opts := Options{MaxRows: 10}
	if _, _, err := EvalPair(positive, cross(), db, nil, opts); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("EvalPair under MaxRows 10: %v, want ErrRowBudget", err)
	}
	got, inQ1, err := FirstDiff(positive, cross(), db, nil, opts)
	if err != nil || inQ1 || len(got) != 1 || !got[0].Identical(relation.Int(0)) {
		t.Fatalf("FirstDiff under MaxRows 10: %v (in Q1: %v), %v; want (0) from Q2", got, inQ1, err)
	}
	all := &ra.Project{Cols: []string{"x"}, In: &ra.Rel{Name: "R"}}
	if _, _, err := FirstDiff(all, cross(), db, nil, opts); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("FirstDiff streaming only Q1's tuples under MaxRows 10: %v, want ErrRowBudget", err)
	}
}

// shapesDB draws R(x, y, s), S(y, z) and T(z, w) with NULLs in every
// column, so natural joins keep right-only columns and keys can be NULL.
func shapesDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	ints := func() relation.Value {
		if rng.Intn(6) == 0 {
			return relation.Null()
		}
		return relation.Int(int64(rng.Intn(4)))
	}
	strs := func() relation.Value {
		if rng.Intn(6) == 0 {
			return relation.Null()
		}
		return relation.String([]string{"p", "q", "r"}[rng.Intn(3)])
	}
	db.CreateRelation("R", relation.NewSchema(relation.Attr("x", relation.KindInt), relation.Attr("y", relation.KindInt), relation.Attr("s", relation.KindString)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("y", relation.KindInt), relation.Attr("z", relation.KindInt)))
	db.CreateRelation("T", relation.NewSchema(relation.Attr("z", relation.KindInt), relation.Attr("w", relation.KindString)))
	for i := 3 + rng.Intn(6); i > 0; i-- {
		db.Insert("R", relation.NewTuple(ints(), ints(), strs()))
		db.Insert("S", relation.NewTuple(ints(), ints()))
		db.Insert("T", relation.NewTuple(ints(), strs()))
	}
	return db
}

// firstDiffShapes are plans whose top joins take every path of FirstDiff's
// probe and stream: natural joins that keep right-only columns, a planned
// three-way region closed by a Permute, θ-joins with and without equi-keys,
// a σ that only stays above its join without the optimizer, a natural cross
// product, and tops that are not joins. All but the last have two output
// columns; the last has one, so that no tuple of the other side matches.
var firstDiffShapes = []string{
	`project[x, z](R join S)`,
	`project[z, x](R join S)`,
	`project[x, z](select[y >= 1](R) join S)`,
	`project[x, z](select[x < z](R join S))`,
	`project[x, w](R join S join T)`,
	`project[a.x, b.x](rename[a](R) join[a.y = b.y and a.x < b.x] rename[b](R))`,
	`project[a.x, b.z](rename[a](R) join[a.x <= b.z] rename[b](S))`,
	`project[x, z](R join T)`,
	`project[x, y](R)`,
	`project[y, z](S) union project[z, z](T join S)`,
	`project[x, y](R) diff project[y, z](S)`,
	`project[z](R join S)`,
}

// TestFirstDiffShapes checks FirstDiff against the first-witness rule on
// every ordered pair of firstDiffShapes, with and without the optimizer and
// the planner, unbudgeted and under tight row budgets.
func TestFirstDiffShapes(t *testing.T) {
	var qs []ra.Node
	for _, text := range firstDiffShapes {
		q, err := raparser.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		qs = append(qs, q)
	}
	modes := append(slices.Clip(planModes), Options{NoOptimize: true, NoPlan: true})
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		db := shapesDB(rng)
		for _, q1 := range qs {
			for _, q2 := range qs {
				checkFirstDiff(t, db, q1, q2, modes)
			}
		}
	}
}
