package engine

import (
	"math"
	"testing"

	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// This file tests how an equality becomes a join key (ra.EquiKeys, behind
// EquiJoinPlan and FlattenJoin), that keys compare as `=` does across int
// and float, and that selection pushdown reads names as the join does.

// optionModes are the optimizer and planner switches a result must not
// depend on.
var optionModes = []Options{{}, {NoPlan: true}, {NoOptimize: true}, {NoOptimize: true, NoPlan: true}}

// TestEquiKeysBareAndQualified: TPC-H Q21's `l_orderkey = m.l_orderkey`
// is one key pair, although the bare name also resolves on the right by its
// base name: the residual, compiled against l ++ r, reads it as the left
// column. FlattenJoin accepts the region on the same rule.
func TestEquiKeysBareAndQualified(t *testing.T) {
	l := relation.NewSchema(relation.Attr("l_suppkey", relation.KindInt), relation.Attr("l_orderkey", relation.KindInt))
	r := relation.NewSchema(relation.Attr("m.l_orderkey", relation.KindInt))
	for _, src := range []string{"l_orderkey = m.l_orderkey", "m.l_orderkey = l_orderkey"} {
		cond := raparser.MustParse("select[" + src + "](R)").(*ra.Select).Pred
		lk, rk, res := EquiJoinPlan(cond, l, r)
		if len(lk) != 1 || lk[0] != 1 || rk[0] != 0 || res != nil {
			t.Errorf("%s: keys %v %v, residual %v; want [1] [0] and none", src, lk, rk, res)
		}
	}

	db := relation.NewDatabase()
	db.CreateRelation("late", l)
	db.CreateRelation("multi", relation.NewSchema(relation.Attr("l_orderkey", relation.KindInt)))
	j := raparser.MustParse("late join[l_orderkey = m.l_orderkey] rename[m](multi)").(*ra.Join)
	g, ok := ra.FlattenJoin(j, Catalog{DB: db})
	if !ok || len(g.Eqs) != 1 || g.Eqs[0] != [2]int{1, 2} {
		t.Fatalf("FlattenJoin = %+v, %v; want one equality between columns 1 and 2", g, ok)
	}

	// A name ambiguous in l ++ r stays residual, so it fails to compile as
	// it does unoptimized.
	l2 := relation.NewSchema(relation.Attr("x.a", relation.KindInt))
	r2 := relation.NewSchema(relation.Attr("y.a", relation.KindInt))
	cond := raparser.MustParse("select[a = y.a](R)").(*ra.Select).Pred
	if lk, _, res := EquiJoinPlan(cond, l2, r2); len(lk) != 0 || res == nil {
		t.Errorf("ambiguous name: keys %v, residual %v; want no key", lk, res)
	}
}

// mixedDB holds R(a int) and S(b float) with the given values.
func mixedDB(r []int64, s []float64) *relation.Database {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindInt)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("b", relation.KindFloat)))
	for _, v := range r {
		db.Insert("R", relation.NewTuple(relation.Int(v)))
	}
	for _, v := range s {
		db.Insert("S", relation.NewTuple(relation.Float(v)))
	}
	return db
}

// checkRows fails unless q returns want rows in every option mode.
func checkRows(t *testing.T, db *relation.Database, src string, want int) {
	t.Helper()
	q := raparser.MustParse(src)
	for _, opts := range optionModes {
		res, err := EvalOpts(q, db, nil, opts)
		if err != nil {
			t.Fatalf("%s (%+v): %v", src, opts, err)
		}
		if res.Len() != want {
			t.Errorf("%s (%+v): %d rows %v, want %d", src, opts, res.Len(), res.Tuples, want)
		}
	}
}

// TestMixedKindKeysMatch: an equi-join matches an int with an equal float,
// whether the equality is written as a join condition, reaches the join
// from a selection, or is a natural join's shared column; and an int beyond
// 2^53 does not match its float64 rounding, as `=` says.
func TestMixedKindKeysMatch(t *testing.T) {
	db := mixedDB([]int64{1}, []float64{1})
	checkRows(t, db, "select[a = b](R cross S)", 1)
	checkRows(t, db, "R join[a = b] S", 1)
	checkRows(t, db, "R join rename[a](project[b](S))", 1)
	checkRows(t, db, "project[a](R) join project[a](select[a = b](R cross S))", 1)

	const big = 1 << 53
	db = mixedDB([]int64{big, big + 1}, []float64{big})
	checkRows(t, db, "R join[a = b] S", 1)
	checkRows(t, db, "select[a = b](R cross S)", 1)
	checkRows(t, db, "select[a > b](R cross S)", 1)
}

// TestNaturalJoinMergesEqualKeys: a natural join keeps the left's value of a
// shared column, so two right tuples that differ only in an Equal key value
// form one output tuple, with both derivations.
func TestNaturalJoinMergesEqualKeys(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindInt)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("a", relation.KindFloat), relation.Attr("c", relation.KindString)))
	db.CreateRelation("T", relation.NewSchema(relation.Attr("a", relation.KindInt), relation.Attr("c", relation.KindString)))
	db.Insert("R", relation.NewTuple(relation.Int(1)))
	db.Insert("S", relation.NewTuple(relation.Float(1), relation.String("x")))
	db.Insert("T", relation.NewTuple(relation.Int(1), relation.String("x")))
	q := raparser.MustParse("R join (S union T)")
	for _, opts := range optionModes {
		res, err := RunOpts[Count](Counting, q, db, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Anns[0] != 2 {
			t.Errorf("%+v: %v with counts %v, want (1, x) twice", opts, res.Tuples, res.Anns)
		}
	}
	// −0 and 0 are one value to deduplication, as Identical says, so the
	// join has one tuple to match.
	db = relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindFloat)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("a", relation.KindFloat), relation.Attr("c", relation.KindString)))
	db.Insert("R", relation.NewTuple(relation.Float(0)))
	db.Insert("S", relation.NewTuple(relation.Float(math.Copysign(0, -1)), relation.String("y")))
	db.Insert("S", relation.NewTuple(relation.Float(0), relation.String("y")))
	checkRows(t, db, "R join S", 1)
}

// TestPushdownReadsNamesAsJoin: a conjunct moves to a side of a join only
// where its names read the same columns there. `m.a` resolves in R's
// schema by its base name, but over the cross product it reads S's column.
func TestPushdownReadsNamesAsJoin(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindInt)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("a", relation.KindInt)))
	for _, v := range []int64{1, 2} {
		db.Insert("R", relation.NewTuple(relation.Int(v)))
	}
	for _, v := range []int64{1, 3} {
		db.Insert("S", relation.NewTuple(relation.Int(v)))
	}
	checkRows(t, db, "select[a = m.a](R cross rename[m](S))", 1)
	checkRows(t, db, "R join[a = m.a and m.a <> 3] rename[m](S)", 1)
	checkRows(t, db, "select[m.a = 3](R cross rename[m](S))", 2)
	checkRows(t, db, "select[a = 1](project[m.a](R cross rename[m](S)))", 1)
	// Ambiguous over the join: it stays above and fails as unoptimized.
	for _, opts := range optionModes {
		q := raparser.MustParse("select[a = 1](rename[x](R) cross rename[y](S))")
		if _, err := EvalOpts(q, db, nil, opts); err == nil {
			t.Errorf("%+v: an ambiguous name evaluated", opts)
		}
	}
}

// TestApplyDeltaMixedKindJoin: the join delta rule's retained key indexes
// match ints with floats as a fresh evaluation does, through deletions,
// insertions and commits.
func TestApplyDeltaMixedKindJoin(t *testing.T) {
	const big = 1 << 53
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindInt), relation.Attr("b", relation.KindString)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("a", relation.KindFloat), relation.Attr("c", relation.KindString)))
	for i, v := range []int64{1, 2, big, big + 1} {
		db.Insert("R", relation.NewTuple(relation.Int(v), relation.String(string(rune('w'+i)))))
	}
	for i, v := range []float64{1, 2, big, 0.5} {
		db.Insert("S", relation.NewTuple(relation.Float(v), relation.String(string(rune('p'+i)))))
	}
	q1 := raparser.MustParse("R join S")
	q2 := raparser.MustParse("project[a, b, c](select[b <> 'x'](R join[a = m.a] rename[m](S)))")
	p, err := PrepareDiff(q1, q2, db.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := db.Clone()
	steps := []struct {
		removed []relation.TupleID
		ins     []Insert
	}{
		{nil, []Insert{{Rel: "S", Tuple: relation.NewTuple(relation.Float(2), relation.String("t"))}}},
		{[]relation.TupleID{1}, []Insert{{Rel: "R", Tuple: relation.NewTuple(relation.Int(2), relation.String("v"))}}},
		{[]relation.TupleID{3}, []Insert{{Rel: "R", Tuple: relation.NewTuple(relation.Int(big), relation.String("u"))}}},
	}
	for i, st := range steps {
		res, err := p.ApplyDelta(st.removed, st.ins)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		keep := map[relation.TupleID]bool{}
		gone := map[relation.TupleID]bool{}
		for _, id := range st.removed {
			gone[id] = true
		}
		for _, id := range fresh.AllIDs() {
			if !gone[id] {
				keep[id] = true
			}
		}
		fresh = fresh.Subinstance(keep)
		for _, ins := range st.ins {
			fresh.Insert(ins.Rel, ins.Tuple)
		}
		want12, want21 := subDiffs(t, q1, q2, fresh)
		d12, err1 := res.Diff12()
		d21, err2 := res.Diff21()
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: %v %v", i, err1, err2)
		}
		if !sameKeySets(want12, keySet(d12.Tuples)) || !sameKeySets(want21, keySet(d21.Tuples)) {
			t.Fatalf("step %d: delta gives %v and %v, a fresh evaluation %d and %d tuples", i, d12.Tuples, d21.Tuples, len(want12), len(want21))
		}
		if err := res.Commit(); err != nil {
			t.Fatalf("step %d: commit: %v", i, err)
		}
	}
	if r1, _ := Eval(q1, fresh, nil); r1.Len() != 5 {
		t.Errorf("R ⋈ S holds %v, want 5 int–float matches", r1.Tuples)
	}
}
