package engine

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file differentially tests the cost-based join planner: for every
// semiring, evaluation with the planner enabled (join reordering, transitive
// key propagation, Yannakakis semi-join reduction) must agree — tuples and
// annotations — with evaluation under Options{NoPlan: true}, over random
// plans biased toward multi-way join regions: natural join chains, θ-chains
// and stars with renamed self-joins, NULL join keys, Diff towers over and
// under regions, and γ barriers. It also covers the planner's interaction
// with EvalBatchDiffs and PrepareDiff/ApplyDelta, and unit-tests the GYO
// reduction, the statistics provider, the join-graph extraction, and the
// pre-execution row-budget refusal.

// naturalChainPlan builds a k-way natural join chain of union-compatible
// subplans. Every input shares the (a, b, c) schema, so each join matches on
// all three columns (NULLs never join) and leaves may themselves contain
// unions, differences and selections — barrier leaves inside the region.
func naturalChainPlan(rng *rand.Rand, k int) ra.Node {
	q := randomCompat(rng, 1)
	for i := 1; i < k; i++ {
		q = &ra.Join{L: q, R: randomCompat(rng, 1)}
	}
	return q
}

// thetaChainPlan builds a k-way θ-equi-join over renamed (often self-joined)
// base relations. Each new leaf joins a random earlier leaf — producing
// chains and stars — on a or on the NULLable b; the final join sometimes
// closes a cycle back to u0, exercising the cyclic (non-Yannakakis) path.
func thetaChainPlan(rng *rand.Rand, k int) ra.Node {
	names := []string{"R", "S", "T"}
	leaf := func(i int) ra.Node {
		return &ra.Rename{As: fmt.Sprintf("u%d", i), In: &ra.Rel{Name: names[rng.Intn(3)]}}
	}
	q := leaf(0)
	for i := 1; i < k; i++ {
		prev := fmt.Sprintf("u%d", rng.Intn(i))
		col := []string{"a", "b"}[rng.Intn(2)]
		cond := ra.Expr(&ra.Cmp{Op: ra.EQ,
			L: &ra.AttrRef{Name: prev + "." + col},
			R: &ra.AttrRef{Name: fmt.Sprintf("u%d.%s", i, col)}})
		if i == k-1 && i >= 2 && rng.Intn(2) == 0 {
			cond = &ra.And{Kids: []ra.Expr{cond, &ra.Cmp{Op: ra.EQ,
				L: &ra.AttrRef{Name: "u0.b"},
				R: &ra.AttrRef{Name: fmt.Sprintf("u%d.b", i)}}}}
		}
		q = &ra.Join{L: q, R: leaf(i), Cond: cond}
	}
	if rng.Intn(2) == 0 {
		q = &ra.Project{Cols: []string{"u0.a", fmt.Sprintf("u%d.c", k-1)}, In: q}
	}
	return q
}

func plannerGroupBy(q ra.Node) ra.Node {
	return &ra.GroupBy{
		GroupCols: []string{"a"},
		Aggs: []ra.AggSpec{
			{Func: ra.Count, As: "n"},
			{Func: ra.Sum, Attr: "b", As: "s"},
			{Func: ra.Min, Attr: "c", As: "m"},
		},
		In: q,
	}
}

// randomPlannerPlan generates a plan containing at least one multi-way join
// region. gamma permits a γ cap (only sound for aggregating semirings).
func randomPlannerPlan(rng *rand.Rand, gamma bool) ra.Node {
	k := 3 + rng.Intn(3)
	switch rng.Intn(4) {
	case 0:
		return thetaChainPlan(rng, k)
	case 1: // region with an optional Diff tower and γ on top
		q := naturalChainPlan(rng, k)
		if rng.Intn(2) == 0 {
			q = &ra.Diff{L: q, R: randomCompat(rng, 2)}
		}
		if gamma && rng.Intn(3) == 0 {
			q = plannerGroupBy(q)
		}
		return q
	case 2: // region under selection/projection
		q := &ra.Select{Pred: randomPred(rng, ""), In: naturalChainPlan(rng, k)}
		if rng.Intn(2) == 0 {
			return &ra.Project{Cols: []string{"a", "c"}, In: q}
		}
		return q
	default: // Diff/Union tower over two regions
		return &ra.Diff{
			L: naturalChainPlan(rng, k),
			R: &ra.Union{L: naturalChainPlan(rng, 2), R: randomCompat(rng, 1)},
		}
	}
}

// planOnOff evaluates q with and without the planner and fails the test
// unless the two runs agree on outcome and support; annotation comparison is
// the caller's.
func planOnOff[T any](t *testing.T, trial int, s Semiring[T], q ra.Node, db *relation.Database) (on, off *Rel[T]) {
	t.Helper()
	on, errOn := RunOpts(s, q, db, nil, Options{})
	off, errOff := RunOpts(s, q, db, nil, Options{NoPlan: true})
	if (errOn == nil) != (errOff == nil) {
		t.Fatalf("trial %d: planner changed the outcome: on=%v off=%v\nquery: %s", trial, errOn, errOff, q)
	}
	if errOn != nil {
		return nil, nil
	}
	if !sameKeySets(keySet(on.Tuples), keySet(off.Tuples)) {
		t.Fatalf("trial %d: planned support differs\nquery: %s\non:  %v\noff: %v\n%s",
			trial, q, on.Tuples, off.Tuples, db)
	}
	return on, off
}

// TestPlannerDifferentialSet: planner-on ≡ planner-off under set semantics.
func TestPlannerDifferentialSet(t *testing.T) {
	rng := rand.New(rand.NewSource(4201))
	for trial := 0; trial < 250; trial++ {
		db := randomDB(rng)
		q := randomPlannerPlan(rng, true)
		planOnOff(t, trial, Set, q, db)
	}
}

// TestPlannerDifferentialCount: derivation counts survive reordering — the
// planner may only rebracket ⊗, never duplicate or drop a derivation.
func TestPlannerDifferentialCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4202))
	for trial := 0; trial < 250; trial++ {
		db := randomDB(rng)
		q := randomPlannerPlan(rng, true)
		on, off := planOnOff(t, trial, Counting, q, db)
		if on == nil {
			continue
		}
		for i, tup := range off.Tuples {
			j := on.Lookup(tup)
			if j < 0 || on.Anns[j] != off.Anns[i] {
				t.Fatalf("trial %d: count of %v: want %d\nquery: %s", trial, tup, off.Anns[i], q)
			}
		}
	}
}

// TestPlannerDifferentialBit: per-candidate bitmasks survive planning (the
// semi-join reduction must behave as a filter — pure ⊕-preserving — for
// non-aggregating semirings too).
func TestPlannerDifferentialBit(t *testing.T) {
	rng := rand.New(rand.NewSource(4203))
	for trial := 0; trial < 200; trial++ {
		db := randomDB(rng)
		q := randomPlannerPlan(rng, false)
		allIDs := db.AllIDs()
		cands := make([][]relation.TupleID, 6)
		for k := range cands {
			for _, id := range allIDs {
				if rng.Intn(2) == 0 {
					cands[k] = append(cands[k], id)
				}
			}
		}
		s, err := NewBitSemiring(cands)
		if err != nil {
			t.Fatal(err)
		}
		on, off := planOnOff[uint64](t, trial, s, q, db)
		if on == nil {
			continue
		}
		for i, tup := range off.Tuples {
			j := on.Lookup(tup)
			if j < 0 || on.Anns[j] != off.Anns[i] {
				t.Fatalf("trial %d: mask of %v: want %b got %b\nquery: %s",
					trial, tup, off.Anns[i], on.Anns[j], q)
			}
		}
	}
}

// TestPlannerDifferentialWhy: provenance expressions stay logically
// equivalent under planning, checked on random assignments.
func TestPlannerDifferentialWhy(t *testing.T) {
	rng := rand.New(rand.NewSource(4204))
	for trial := 0; trial < 200; trial++ {
		db := randomDB(rng)
		q := randomPlannerPlan(rng, false)
		on, off := planOnOff(t, trial, Why, q, db)
		if on == nil {
			continue
		}
		allIDs := db.AllIDs()
		for k := 0; k < 12; k++ {
			assign := map[int]bool{}
			for _, id := range allIDs {
				assign[int(id)] = rng.Intn(2) == 0
			}
			fn := func(id int) bool { return assign[id] }
			for i, tup := range off.Tuples {
				j := on.Lookup(tup)
				if j < 0 {
					t.Fatalf("trial %d: planned run missing %v\nquery: %s", trial, tup, q)
				}
				if on.Anns[j].Eval(fn) != off.Anns[i].Eval(fn) {
					t.Fatalf("trial %d: provenance of %v inequivalent\non:  %s\noff: %s\nquery: %s",
						trial, tup, on.Anns[j], off.Anns[i], q)
				}
			}
		}
	}
}

func batchMasks(b *BatchResult) map[string]string {
	m := make(map[string]string, len(b.Tuples))
	for i, t := range b.Tuples {
		mask := make([]byte, b.K)
		for k := 0; k < b.K; k++ {
			mask[k] = '0'
			if b.Has(i, k) {
				mask[k] = '1'
			}
		}
		m[t.Key()] = string(mask)
	}
	return m
}

// TestPlannerBatchDiffs: EvalBatchDiffs with the planner ≡ without, for both
// difference directions, including wide (>64 candidate) masks.
func TestPlannerBatchDiffs(t *testing.T) {
	rng := rand.New(rand.NewSource(4205))
	for trial := 0; trial < 100; trial++ {
		db := randomDB(rng)
		q1, q2 := randomDiffPair(rng)
		allIDs := db.AllIDs()
		k := 5
		if trial%10 == 9 {
			k = 70 // wide-mask path
		}
		cands := make([][]relation.TupleID, k)
		for c := range cands {
			for _, id := range allIDs {
				if rng.Intn(2) == 0 {
					cands[c] = append(cands[c], id)
				}
			}
		}
		on12, on21, errOn := EvalBatchDiffs(q1, q2, db, nil, cands, Options{})
		off12, off21, errOff := EvalBatchDiffs(q1, q2, db, nil, cands, Options{NoPlan: true})
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("trial %d: planner changed the outcome: on=%v off=%v", trial, errOn, errOff)
		}
		if errOn != nil {
			continue // γ pairs reject batching identically on both sides
		}
		if !maps.Equal(batchMasks(on12), batchMasks(off12)) ||
			!maps.Equal(batchMasks(on21), batchMasks(off21)) {
			t.Fatalf("trial %d: batched diffs differ with planner\nq1: %s\nq2: %s", trial, q1, q2)
		}
	}
}

// TestPlannerPreparedDiff: the delta-incremental path plans (join order
// only; semi-joins are disabled there) and must agree with the unplanned
// prepared state on every delta.
func TestPlannerPreparedDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(4206))
	for trial := 0; trial < 80; trial++ {
		db := randomDB(rng)
		q1, q2 := randomDiffPair(rng)
		pOn, errOn := PrepareDiff(q1, q2, db, nil, Options{})
		pOff, errOff := PrepareDiff(q1, q2, db, nil, Options{NoPlan: true})
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("trial %d: planner changed preparability: on=%v off=%v\nq1: %s\nq2: %s",
				trial, errOn, errOff, q1, q2)
		}
		if errOn != nil {
			continue
		}
		allIDs := db.AllIDs()
		for d := 0; d < 3; d++ {
			var removed []relation.TupleID
			for _, id := range allIDs {
				if rng.Intn(3) == 0 {
					removed = append(removed, id)
				}
			}
			rOn, err := pOn.ApplyDelta(removed, nil)
			if err != nil {
				t.Fatalf("trial %d: planned ApplyDelta: %v", trial, err)
			}
			rOff, err := pOff.ApplyDelta(removed, nil)
			if err != nil {
				t.Fatalf("trial %d: unplanned ApplyDelta: %v", trial, err)
			}
			on12, err1 := rOn.Diff12()
			on21, err2 := rOn.Diff21()
			off12, err3 := rOff.Diff12()
			off21, err4 := rOff.Diff21()
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				t.Fatalf("trial %d: diff materialization: %v %v %v %v", trial, err1, err2, err3, err4)
			}
			if !sameKeySets(keySet(on12.Tuples), keySet(off12.Tuples)) ||
				!sameKeySets(keySet(on21.Tuples), keySet(off21.Tuples)) {
				t.Fatalf("trial %d: delta diffs differ with planner\nq1: %s\nq2: %s", trial, q1, q2)
			}
		}
	}
}

// gyoClasses builds synthetic join classes from leaf spans.
func gyoClasses(spans ...[]int) []jclass {
	cs := make([]jclass, len(spans))
	for i, span := range spans {
		for _, l := range span {
			cs[i].leafMask |= 1 << l
		}
	}
	return cs
}

func TestGYOJoinTree(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		classes []jclass
		acyclic bool
	}{
		{"chain", 3, gyoClasses([]int{0, 1}, []int{1, 2}), true},
		{"star", 4, gyoClasses([]int{0, 1}, []int{0, 2}, []int{0, 3}), true},
		{"triangle", 3, gyoClasses([]int{0, 1}, []int{1, 2}, []int{0, 2}), false},
		{"cycle4", 4, gyoClasses([]int{0, 1}, []int{1, 2}, []int{2, 3}, []int{3, 0}), false},
		{"shared-class", 3, gyoClasses([]int{0, 1, 2}), true},
		{"cycle-with-tail", 4, gyoClasses([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{2, 3}), false},
	}
	for _, tc := range cases {
		order, ok := gyoJoinTree(tc.n, tc.classes)
		if ok != tc.acyclic {
			t.Errorf("%s: acyclic = %v, want %v", tc.name, ok, tc.acyclic)
		}
		if ok && len(order) != tc.n-1 {
			t.Errorf("%s: join tree has %d edges, want %d", tc.name, len(order), tc.n-1)
		}
	}
}

func TestFlattenJoinShapes(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(1)))
	cat := Catalog{DB: db}
	rel := func(n string) ra.Node { return &ra.Rel{Name: n} }

	// Natural 3-chain: 3 leaves, every original column in the global space,
	// each of the two joins contributing one equality per shared column.
	j := &ra.Join{L: &ra.Join{L: rel("R"), R: rel("S")}, R: rel("T")}
	g, ok := ra.FlattenJoin(j, cat)
	if !ok {
		t.Fatal("natural chain did not flatten")
	}
	if len(g.Leaves) != 3 || len(g.Cols) != 9 || len(g.Eqs) != 6 || len(g.Out) != 3 {
		t.Fatalf("natural chain: leaves=%d cols=%d eqs=%d out=%d",
			len(g.Leaves), len(g.Cols), len(g.Eqs), len(g.Out))
	}

	// θ-join with a residual inequality is not a pure equi-join region.
	resid := &ra.Join{
		L: &ra.Rename{As: "u", In: rel("R")},
		R: &ra.Rename{As: "v", In: rel("S")},
		Cond: &ra.And{Kids: []ra.Expr{
			&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u.a"}, R: &ra.AttrRef{Name: "v.a"}},
			&ra.Cmp{Op: ra.LE, L: &ra.AttrRef{Name: "u.b"}, R: &ra.AttrRef{Name: "v.a"}},
		}},
	}
	if _, ok := ra.FlattenJoin(resid, cat); ok {
		t.Fatal("residual θ-join flattened as a pure equi-join region")
	}

	// Disjoint renamed schemas with no condition: a cross product, also not
	// a reorderable region.
	cross := &ra.Join{
		L: &ra.Rename{As: "u", In: rel("R")},
		R: &ra.Rename{As: "v", In: rel("S")},
	}
	if _, ok := ra.FlattenJoin(cross, cat); ok {
		t.Fatal("cross product flattened as an equi-join region")
	}

	// A union is a barrier: it becomes a single leaf, not a flattened input.
	barrier := &ra.Join{L: &ra.Union{L: rel("R"), R: rel("S")}, R: &ra.Join{L: rel("S"), R: rel("T")}}
	g, ok = ra.FlattenJoin(barrier, cat)
	if !ok || len(g.Leaves) != 3 {
		t.Fatalf("barrier region: ok=%v leaves=%d, want 3 (∪ as one leaf)", ok, len(g.Leaves))
	}
}

func TestStatsExactAndCached(t *testing.T) {
	db := relation.NewDatabase()
	schema := relation.NewSchema(relation.Attr("a", relation.KindInt), relation.Attr("b", relation.KindInt))
	db.CreateRelation("X", schema)
	for _, v := range []int64{1, 1, 2, 3, 3} {
		db.Insert("X", relation.NewTuple(relation.Int(v), relation.Null()))
	}
	db.Insert("X", relation.NewTuple(relation.Int(4), relation.Int(7)))

	st := StatsOf(db)
	xs := st.Rel("X")
	if xs == nil || xs.Sampled {
		t.Fatalf("expected exact stats, got %+v", xs)
	}
	if xs.Rows != 6 || xs.Cols[0].Distinct != 4 || xs.Cols[0].NullFrac != 0 {
		t.Fatalf("column a stats wrong: %+v", xs.Cols[0])
	}
	if xs.Cols[1].Distinct != 1 || xs.Cols[1].NullFrac != 5.0/6 {
		t.Fatalf("column b stats wrong: %+v", xs.Cols[1])
	}
	if st.Rel("missing") != nil {
		t.Fatal("unknown relation should have nil stats")
	}

	// Cached until the instance version changes.
	if StatsOf(db) != st {
		t.Fatal("second StatsOf did not hit the instance cache")
	}
	db.Insert("X", relation.NewTuple(relation.Int(9), relation.Int(9)))
	st2 := StatsOf(db)
	if st2 == st {
		t.Fatal("mutation did not invalidate cached stats")
	}
	if st2.Rel("X").Rows != 7 {
		t.Fatalf("stale row count after invalidation: %d", st2.Rel("X").Rows)
	}
}

func TestStatsSampled(t *testing.T) {
	savedThresh, savedSize := StatsSampleThreshold, StatsSampleSize
	StatsSampleThreshold, StatsSampleSize = 64, 48
	t.Cleanup(func() { StatsSampleThreshold, StatsSampleSize = savedThresh, savedSize })

	db := relation.NewDatabase()
	schema := relation.NewSchema(relation.Attr("a", relation.KindInt), relation.Attr("b", relation.KindInt))
	db.CreateRelation("Z", schema)
	const n = 1000
	for i := 0; i < n; i++ {
		db.Insert("Z", relation.NewTuple(relation.Int(int64(i%10)), relation.Int(int64(i))))
	}
	zs := StatsOf(db).Rel("Z")
	if zs == nil || !zs.Sampled || zs.Rows != n {
		t.Fatalf("expected sampled stats over %d rows, got %+v", n, zs)
	}
	// Low-cardinality column: Chao1 stays near the true 10.
	if d := zs.Cols[0].Distinct; d < 5 || d > 40 {
		t.Fatalf("distinct(a) = %v, want near 10", d)
	}
	// Unique column: the all-distinct sample promotes to a key estimate.
	if d := zs.Cols[1].Distinct; d < n/2 {
		t.Fatalf("distinct(b) = %v, want key-promoted toward %d", d, n)
	}
}

// TestPlannerRefusesBudget: when every join order over a cyclic region is
// estimated to blow the row budget, evaluation fails with the structured
// ErrRowBudget from the planner's preflight check, before any join runs.
func TestPlannerRefusesBudget(t *testing.T) {
	db := relation.NewDatabase()
	schema := relation.NewSchema(
		relation.Attr("a", relation.KindInt),
		relation.Attr("b", relation.KindInt),
		relation.Attr("c", relation.KindString))
	for _, name := range []string{"R", "S", "T"} {
		db.CreateRelation(name, schema)
		for i := 0; i < 30; i++ {
			db.Insert(name, relation.NewTuple(
				relation.Int(int64(i%3)), relation.Int(int64(i%2)), relation.String("x")))
		}
	}
	// Cyclic triangle u0 —a— u1 —b— u2 —c— u0: no Yannakakis fast path, so
	// the preflight estimate applies.
	q := &ra.Join{
		L: &ra.Join{
			L:    &ra.Rename{As: "u0", In: &ra.Rel{Name: "R"}},
			R:    &ra.Rename{As: "u1", In: &ra.Rel{Name: "S"}},
			Cond: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u0.a"}, R: &ra.AttrRef{Name: "u1.a"}},
		},
		R: &ra.Rename{As: "u2", In: &ra.Rel{Name: "T"}},
		Cond: &ra.And{Kids: []ra.Expr{
			&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u1.b"}, R: &ra.AttrRef{Name: "u2.b"}},
			&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u0.c"}, R: &ra.AttrRef{Name: "u2.c"}},
		}},
	}
	_, err := RunOpts(Set, q, db, nil, Options{MaxRows: 4})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("want ErrRowBudget, got %v", err)
	}
	if !strings.Contains(err.Error(), "planner estimates") {
		t.Fatalf("budget error did not come from the planner preflight: %v", err)
	}
	// A workable budget evaluates fine, and planned ≡ unplanned on it.
	on, err := RunOpts(Set, q, db, nil, Options{})
	if err != nil {
		t.Fatalf("unbudgeted planned run: %v", err)
	}
	off, err := RunOpts(Set, q, db, nil, Options{NoPlan: true})
	if err != nil {
		t.Fatalf("unbudgeted unplanned run: %v", err)
	}
	if !sameKeySets(keySet(on.Tuples), keySet(off.Tuples)) {
		t.Fatal("triangle query: planned and unplanned results differ")
	}
}
