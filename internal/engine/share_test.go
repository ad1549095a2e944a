package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file tests the hash-consing of prepared plans (share.go): the
// structural key tells every pair of distinct payloads apart, plan reports
// survive the merging of equal join regions, and evaluating two queries that
// share subtrees in one exec gives exactly what two separate evaluations and
// the nested-loop reference evaluator give.

// internedTogether reports whether a and b become one node when interned
// together.
func internedTogether(a, b ra.Node) bool {
	in := newInterner(nil)
	return in.intern(a) == in.intern(b)
}

func TestStructuralKeyDistinct(t *testing.T) {
	attr := func(n string) ra.Expr { return &ra.AttrRef{Name: n} }
	lit := func(v relation.Value) ra.Expr { return &ra.Const{Val: v} }
	cmp := func(op ra.CmpOp, l, r ra.Expr) ra.Expr { return &ra.Cmp{Op: op, L: l, R: r} }
	sel := func(p ra.Expr) ra.Node { return &ra.Select{Pred: p, In: &ra.Rel{Name: "R"}} }
	rel := func(n string) ra.Node { return &ra.Rel{Name: n} }
	p, q, r := cmp(ra.EQ, attr("a"), attr("b")), cmp(ra.LT, attr("a"), lit(relation.Int(1))), cmp(ra.NE, attr("c"), lit(relation.String("x")))
	agg := func(f ra.AggFunc, attr string) ra.Node {
		return &ra.GroupBy{GroupCols: []string{"a"}, Aggs: []ra.AggSpec{{Func: f, Attr: attr, As: "n"}}, In: rel("R")}
	}
	cases := []struct {
		name string
		x, y ra.Node
	}{
		{"Int(1) vs Float(1)", sel(cmp(ra.EQ, attr("a"), lit(relation.Int(1)))), sel(cmp(ra.EQ, attr("a"), lit(relation.Float(1))))},
		{"Int(1) vs '1'", sel(cmp(ra.EQ, attr("a"), lit(relation.Int(1)))), sel(cmp(ra.EQ, attr("a"), lit(relation.String("1"))))},
		{"Float(1) vs '1'", sel(cmp(ra.EQ, attr("a"), lit(relation.Float(1)))), sel(cmp(ra.EQ, attr("a"), lit(relation.String("1"))))},
		{"NULL vs false", sel(cmp(ra.EQ, attr("a"), lit(relation.Null()))), sel(cmp(ra.EQ, attr("a"), lit(relation.Bool(false))))},
		{"false vs 0", sel(cmp(ra.EQ, attr("a"), lit(relation.Bool(false)))), sel(cmp(ra.EQ, attr("a"), lit(relation.Int(0))))},
		{"nested vs flat And", sel(&ra.And{Kids: []ra.Expr{p, &ra.And{Kids: []ra.Expr{q, r}}}}), sel(&ra.And{Kids: []ra.Expr{p, q, r}})},
		{"And vs Or", sel(&ra.And{Kids: []ra.Expr{p, q}}), sel(&ra.Or{Kids: []ra.Expr{p, q}})},
		{"Not", sel(&ra.Not{Kid: p}), sel(p)},
		{"< vs <=", sel(cmp(ra.LT, attr("a"), attr("b"))), sel(cmp(ra.LE, attr("a"), attr("b")))},
		{"operand order", sel(cmp(ra.LT, attr("a"), attr("b"))), sel(cmp(ra.LT, attr("b"), attr("a")))},
		{"attribute vs parameter", sel(cmp(ra.EQ, attr("a"), attr("p"))), sel(cmp(ra.EQ, attr("a"), &ra.Param{Name: "p"}))},
		{"arithmetic operator", sel(cmp(ra.EQ, &ra.Arith{Op: '+', L: attr("a"), R: attr("b")}, attr("c"))),
			sel(cmp(ra.EQ, &ra.Arith{Op: '-', L: attr("a"), R: attr("b")}, attr("c")))},
		{"join without vs with condition", &ra.Join{L: rel("R"), R: rel("S")}, &ra.Join{L: rel("R"), R: rel("S"), Cond: p}},
		{"join operand order", &ra.Join{L: rel("R"), R: rel("S")}, &ra.Join{L: rel("S"), R: rel("R")}},
		{"union vs difference", &ra.Union{L: rel("R"), R: rel("S")}, &ra.Diff{L: rel("R"), R: rel("S")}},
		{"name with a separator", rel("R,S"), rel("R")},
		{"column list split at a comma", &ra.Project{Cols: []string{"a,b"}, In: rel("R")}, &ra.Project{Cols: []string{"a", "b"}, In: rel("R")}},
		{"column list split at a length byte", &ra.Project{Cols: []string{"\x01a", "b"}, In: rel("R")}, &ra.Project{Cols: []string{"\x01a\x01b"}, In: rel("R")}},
		{"column names split differently", &ra.Project{Cols: []string{"ab", "c"}, In: rel("R")}, &ra.Project{Cols: []string{"a", "bc"}, In: rel("R")}},
		{"aggregate argument and name split differently", &ra.GroupBy{Aggs: []ra.AggSpec{{Func: ra.Count, Attr: "ab", As: "c"}}, In: rel("R")},
			&ra.GroupBy{Aggs: []ra.AggSpec{{Func: ra.Count, Attr: "a", As: "bc"}}, In: rel("R")}},
		{"empty column name", &ra.Project{Cols: []string{"", "a"}, In: rel("R")}, &ra.Project{Cols: []string{"\x01a"}, In: rel("R")}},
		{"dotted rename vs two renames", &ra.Rename{As: "u.v", In: rel("R")}, &ra.Rename{As: "u", In: &ra.Rename{As: "v", In: rel("R")}}},
		{"relation vs rename of the same name", rel("R"), &ra.Rename{As: "R", In: rel("R")}},
		{"count(*) vs count(b)", agg(ra.Count, ""), agg(ra.Count, "b")},
		{"count(b) vs sum(b)", agg(ra.Count, "b"), agg(ra.Sum, "b")},
		{"group key vs aggregate argument", &ra.GroupBy{GroupCols: []string{"a"}, Aggs: []ra.AggSpec{{Func: ra.Count, As: "n"}}, In: rel("R")},
			&ra.GroupBy{Aggs: []ra.AggSpec{{Func: ra.Count, Attr: "a", As: "n"}}, In: rel("R")}},
		{"equi-join key lists split", &ra.EquiJoin{L: rel("R"), R: rel("S"), LKeys: []int{0, 1}, RKeys: []int{2}},
			&ra.EquiJoin{L: rel("R"), R: rel("S"), LKeys: []int{0}, RKeys: []int{1, 2}}},
		{"semi-join vs equi-join", &ra.Semi{L: rel("R"), R: rel("S"), LKeys: []int{0}, RKeys: []int{0}},
			&ra.EquiJoin{L: rel("R"), R: rel("S"), LKeys: []int{0}, RKeys: []int{0}}},
		{"permutation", &ra.Permute{In: rel("R"), Idxs: []int{0, 1}}, &ra.Permute{In: rel("R"), Idxs: []int{1, 0}}},
	}
	for _, c := range cases {
		if internedTogether(c.x, c.y) {
			t.Errorf("%s: %s and %s got one key", c.name, c.x, c.y)
		}
	}
}

// Equal structures become one node. The first keeps its pointer when its
// children were already canonical; a tree whose own subtrees repeat is
// rebuilt over the shared node.
func TestStructuralKeyMerges(t *testing.T) {
	build := func() ra.Node {
		return &ra.Project{Cols: []string{"a"}, In: &ra.Select{
			Pred: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "a"}, R: &ra.Const{Val: relation.Int(1)}},
			In:   &ra.Join{L: &ra.Rel{Name: "R"}, R: &ra.Rel{Name: "S"}}}}
	}
	in := newInterner(nil)
	x, y := build(), build()
	if got := in.intern(x); got != x {
		t.Fatalf("the first tree of its structure lost its pointer: %p, want %p", got, x)
	}
	if got := in.intern(y); got != x {
		t.Fatalf("a structural copy was not merged into the first tree")
	}

	twice := &ra.Union{L: build(), R: build()}
	u := newInterner(nil).intern(twice).(*ra.Union)
	if u == twice || u.L != u.R || u.L != twice.L {
		t.Fatalf("a union of two equal subtrees should be rebuilt over one shared node that keeps the first's pointer")
	}
}

// TestSharedSubtreeEvaluatedOnce: one exec evaluates a subtree that occurs
// three times once, within one root under every semiring, why-provenance
// included, and across EvalPair's two. Options.Stop is polled once per
// operator evaluated (and every stopPollStride join pairs, which these
// small joins never reach).
func TestSharedSubtreeEvaluatedOnce(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(5)))
	sub := func() ra.Node {
		return &ra.Project{Cols: []string{"a", "c"}, In: &ra.Join{L: &ra.Rel{Name: "R"},
			R: &ra.Select{Pred: &ra.Cmp{Op: ra.GE, L: &ra.AttrRef{Name: "a"}, R: &ra.Const{Val: relation.Int(1)}}, In: &ra.Rel{Name: "S"}}}}
	}
	polls := 0
	opts := Options{Stop: func() error { polls++; return nil }}
	count := func(run func() error) int {
		t.Helper()
		polls = 0
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return polls
	}
	set := func(q ra.Node) error { _, err := RunOpts(Set, q, db, nil, opts); return err }
	why := func(q ra.Node) error { _, err := RunOpts(Why, q, db, nil, opts); return err }
	for _, c := range []struct {
		semiring string
		eval     func(ra.Node) error
	}{{"set", set}, {"why-provenance", why}} {
		one := count(func() error { return c.eval(sub()) })
		three := count(func() error { return c.eval(&ra.Union{L: &ra.Union{L: sub(), R: sub()}, R: sub()}) })
		if three != one+2 {
			t.Errorf("%s: a union of three equal subtrees evaluated %d operators, want %d (one subtree: %d)", c.semiring, three, one+2, one)
		}
	}
	one := count(func() error { return set(sub()) })
	pair := count(func() error {
		_, _, err := EvalPair(&ra.Union{L: sub(), R: sub()}, sub(), db, nil, opts)
		return err
	})
	if pair != one+1 {
		t.Errorf("EvalPair over three equal subtrees evaluated %d operators, want %d (one subtree: %d)", pair, one+1, one)
	}
}

// TestPlanReportSharedJoins: a query whose planned tree holds the same
// equi-join region twice evaluates that region once, and every JoinReport
// of both copies still gets the shared node's actual cardinality.
func TestPlanReportSharedJoins(t *testing.T) {
	region := func() ra.Node {
		u := func(i, rel string) ra.Node { return &ra.Rename{As: i, In: &ra.Rel{Name: rel}} }
		return &ra.Project{Cols: []string{"u0.a", "u2.c"}, In: &ra.Join{
			L: &ra.Join{L: u("u0", "R"), R: u("u1", "S"),
				Cond: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u0.a"}, R: &ra.AttrRef{Name: "u1.a"}}},
			R:    u("u2", "T"),
			Cond: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u1.b"}, R: &ra.AttrRef{Name: "u2.b"}}}}
	}
	q := &ra.Union{L: region(), R: region()}
	db := randomDB(rand.New(rand.NewSource(3)))
	check := func(name string, report *PlanReport) {
		t.Helper()
		var rows [][]int64
		for _, rr := range report.Regions {
			if !rr.Planned {
				continue
			}
			var rs []int64
			for _, jr := range rr.Joins {
				if jr.ActualRows < 0 {
					t.Errorf("%s: join %s has no actual cardinality", name, jr.Expr)
				}
				rs = append(rs, jr.ActualRows)
			}
			rows = append(rows, rs)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d planned regions, want the region twice", name, len(rows))
		}
		for i := range rows[0] {
			if rows[0][i] != rows[1][i] {
				t.Errorf("%s: the copies of the region report %v and %v", name, rows[0], rows[1])
			}
		}
	}

	report := &PlanReport{}
	if _, err := RunOpts(Set, q, db, nil, Options{Observer: report}); err != nil {
		t.Fatal(err)
	}
	check("RunOpts", report)

	planned, report, err := ExplainPlan(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalOpts(planned, db, nil, Options{NoOptimize: true, NoPlan: true, Observer: report}); err != nil {
		t.Fatal(err)
	}
	check("ExplainPlan then EvalOpts", report)
}

// cloneNode deep-copies a plan, so that what the copy shares with the
// original it shares by structure, not by pointer.
func cloneNode(n ra.Node) ra.Node {
	if r, ok := n.(*ra.Rel); ok {
		return &ra.Rel{Name: r.Name}
	}
	kids := n.Children()
	for i, k := range kids {
		kids[i] = cloneNode(k)
	}
	return withChildren(n, kids)
}

// randomSharing is randomCompat whose leaves are often the shared subtree,
// by pointer or as a structural copy.
func randomSharing(rng *rand.Rand, depth int, shared ra.Node) ra.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return shared
		case 1:
			return cloneNode(shared)
		}
		return &ra.Rel{Name: []string{"R", "S", "T"}[rng.Intn(3)]}
	}
	sub := func() ra.Node { return randomSharing(rng, depth-1, shared) }
	switch rng.Intn(4) {
	case 0:
		return &ra.Select{Pred: randomPred(rng, ""), In: sub()}
	case 1:
		return &ra.Union{L: sub(), R: sub()}
	case 2:
		return &ra.Diff{L: sub(), R: sub()}
	default:
		return &ra.Join{L: sub(), R: sub()}
	}
}

// mutatedCopy copies q with one node changed, the way a wrong query differs
// from its reference: a relation renamed, a selection's predicate redrawn,
// or, at any other node, a selection added on top.
func mutatedCopy(rng *rand.Rand, q ra.Node) ra.Node {
	c := cloneNode(q)
	var nodes []ra.Node
	ra.Walk(c, func(n ra.Node) { nodes = append(nodes, n) })
	switch x := nodes[rng.Intn(len(nodes))].(type) {
	case *ra.Rel:
		x.Name = []string{"R", "S", "T"}[rng.Intn(3)]
	case *ra.Select:
		x.Pred = randomPred(rng, "")
	default:
		return &ra.Select{Pred: randomPred(rng, ""), In: c}
	}
	return c
}

// randomSharedPair draws two union-compatible plans that share a random
// subtree, under a common top: none, a projection, a θ-join with a copy of
// the shared subtree, a three-way natural join region the planner
// reorders, or a join with the renamed shared subtree on bare and qualified
// names (randomBareQualified).
func randomSharedPair(rng *rand.Rand) (ra.Node, ra.Node) {
	shared := randomCompat(rng, 2)
	q1 := randomSharing(rng, 3, shared)
	q2 := randomSharing(rng, 3, shared)
	if rng.Intn(3) == 0 {
		q2 = mutatedCopy(rng, q1)
	}
	var top func(ra.Node) ra.Node
	switch rng.Intn(5) {
	case 0:
		return q1, q2
	case 1:
		top = func(q ra.Node) ra.Node { return &ra.Project{Cols: []string{"a", "c"}, In: q} }
	case 2:
		top = func(q ra.Node) ra.Node {
			return &ra.Project{Cols: []string{"u.a", "v.c"}, In: &ra.Join{
				L: &ra.Rename{As: "u", In: q}, R: &ra.Rename{As: "v", In: cloneNode(shared)},
				Cond: &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u.a"}, R: &ra.AttrRef{Name: "v.a"}}}}
		}
	case 3:
		top = func(q ra.Node) ra.Node {
			return &ra.Join{L: &ra.Join{L: q, R: cloneNode(shared)}, R: &ra.Rel{Name: "T"}}
		}
	default:
		// Bare names on the left, qualified on the right: the same draw
		// for both queries, so that they share the top.
		seed := rng.Int63()
		top = func(q ra.Node) ra.Node {
			return randomBareQualified(rand.New(rand.NewSource(seed)), q, cloneNode(shared))
		}
	}
	return top(q1), top(q2)
}

// sameRel reports whether two results hold the same tuples in the same
// order with equal annotations.
func sameRel[T any](a, b *Rel[T], same func(x, y T) bool) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Identical(b.Tuples[i]) || !same(a.Anns[i], b.Anns[i]) {
			return false
		}
	}
	return true
}

// cnfText renders e's Tseitin encoding: its variables, clauses and the
// tuple id of each base variable.
func cnfText(e *boolexpr.Expr) string {
	b := boolexpr.NewCNFBuilder()
	b.Assert(e)
	ids := map[int]int{}
	for _, v := range b.BaseVars() {
		ids[v], _ = b.ExprVar(v)
	}
	return fmt.Sprint(b.NumVars, b.Clauses, ids)
}

// planModes are the options every shared entry point is checked under.
var planModes = []Options{{}, {NoPlan: true}}

// checkSharedSemiring evaluates q1 and q2 in one exec under s, in each of
// modes, and fails unless each result equals, in order and with identical
// annotations, the query's separate evaluation, and equals the reference's
// result up to order with annotations the same.
func checkSharedSemiring[T any](t *testing.T, s Semiring[T], db *relation.Database, q1, q2 ra.Node, modes []Options, same, identical func(x, y T) bool) {
	t.Helper()
	qs := []ra.Node{q1, q2}
	var want [2]*refRel[T]
	for i, q := range qs {
		w, err := refEval(s, q, db, nil)
		if err != nil {
			t.Fatalf("reference: %v\nquery: %s", err, q)
		}
		want[i] = w
	}
	for _, opts := range modes {
		shared, err := runRoots(s, qs, db, nil, opts)
		if err != nil {
			t.Fatalf("%s, NoPlan %v: shared evaluation: %v\nq1: %s\nq2: %s", s.Name(), opts.NoPlan, err, q1, q2)
		}
		for i, q := range qs {
			sep, err := RunOpts(s, q, db, nil, opts)
			if err != nil {
				t.Fatalf("%s, NoPlan %v: separate evaluation: %v\nquery: %s", s.Name(), opts.NoPlan, err, q)
			}
			if !sameRel(shared[i], sep, identical) {
				t.Fatalf("%s, NoPlan %v: q%d differs between shared and separate evaluation\nq1: %s\nq2: %s\nshared:   %v\nseparate: %v",
					s.Name(), opts.NoPlan, i+1, q1, q2, shared[i].Tuples, sep.Tuples)
			}
			if shared[i].Len() != len(want[i].tuples) {
				t.Fatalf("%s, NoPlan %v: q%d has %d tuples, the reference %d\nquery: %s", s.Name(), opts.NoPlan, i+1, shared[i].Len(), len(want[i].tuples), q)
			}
			for j, tup := range want[i].tuples {
				k := shared[i].Lookup(tup)
				if k < 0 || !same(shared[i].Anns[k], want[i].anns[j]) {
					t.Fatalf("%s, NoPlan %v: q%d disagrees with the reference on %v\nquery: %s", s.Name(), opts.NoPlan, i+1, tup, q)
				}
			}
		}
	}
}

// checkShared runs every shared entry point on q1 and q2 — EvalPair,
// FirstDiff, the counting and why-provenance semirings through the same
// path, EvalBatchDiffs and PrepareDiff under deletions — with the planner on
// and off, against separate evaluation and the reference evaluator. rng
// draws the candidate subinstances, the deletions and the assignments that
// compare provenance.
func checkShared(t *testing.T, rng *rand.Rand, db *relation.Database, q1, q2 ra.Node) {
	t.Helper()
	allIDs := db.AllIDs()
	randomIDs := func() map[relation.TupleID]bool {
		keep := map[relation.TupleID]bool{}
		for _, id := range allIDs {
			if rng.Intn(2) == 0 {
				keep[id] = true
			}
		}
		return keep
	}
	// Why-provenance annotations are compared by value on random subsets of
	// the base tuples.
	var assigns []map[relation.TupleID]bool
	for k := 0; k < 8; k++ {
		assigns = append(assigns, randomIDs())
	}
	sameProv := func(x, y *boolexpr.Expr) bool {
		for _, a := range assigns {
			fn := func(id int) bool { return a[relation.TupleID(id)] }
			if x.Eval(fn) != y.Eval(fn) {
				return false
			}
		}
		return true
	}
	// Shared and separate evaluation must hand a witness search the same
	// CNF.
	sameCNF := func(x, y *boolexpr.Expr) bool { return cnfText(x) == cnfText(y) }
	// diffRef is the reference's Q1 − Q2 and Q2 − Q1 on the subinstance
	// keeping the given ids.
	type diffs struct{ d12, d21 map[string]bool }
	diffRef := func(keep map[relation.TupleID]bool) diffs {
		sub := db.Subinstance(keep)
		d12, err1 := refEval[bool](Set, &ra.Diff{L: q1, R: q2}, sub, nil)
		d21, err2 := refEval[bool](Set, &ra.Diff{L: q2, R: q1}, sub, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("reference: %v %v", err1, err2)
		}
		return diffs{keySet(d12.tuples), keySet(d21.tuples)}
	}
	// Four candidate subinstances for EvalBatchDiffs, and three cumulative
	// deletion steps for PrepareDiff, each with the reference's answer.
	cands := make([][]relation.TupleID, 4)
	candWant := make([]diffs, len(cands))
	for k := range cands {
		keep := randomIDs()
		for _, id := range allIDs {
			if keep[id] {
				cands[k] = append(cands[k], id)
			}
		}
		candWant[k] = diffRef(keep)
	}
	live := map[relation.TupleID]bool{}
	for _, id := range allIDs {
		live[id] = true
	}
	steps := make([][]relation.TupleID, 3)
	stepWant := make([]diffs, len(steps))
	for i := range steps {
		for _, id := range allIDs {
			if live[id] && rng.Intn(4) == 0 {
				steps[i] = append(steps[i], id)
				delete(live, id)
			}
		}
		stepWant[i] = diffRef(live)
	}

	// The planner refuses a join order it estimates past the row budget. It
	// plans every root on its own, before sharing, so separate evaluation
	// must refuse too; the other entry points are checked in the modes that
	// run.
	var modes []Options
	for _, opts := range planModes {
		r1, r2, err := EvalPair(q1, q2, db, nil, opts)
		if errors.Is(err, ErrRowBudget) {
			_, err1 := EvalOpts(q1, db, nil, opts)
			_, err2 := EvalOpts(q2, db, nil, opts)
			if !errors.Is(err1, ErrRowBudget) && !errors.Is(err2, ErrRowBudget) {
				t.Fatalf("NoPlan %v: EvalPair refused %v, separate evaluation did not\nq1: %s\nq2: %s", opts.NoPlan, err, q1, q2)
			}
			continue
		}
		if err != nil {
			t.Fatalf("NoPlan %v: EvalPair: %v\nq1: %s\nq2: %s", opts.NoPlan, err, q1, q2)
		}
		for i, q := range []ra.Node{q1, q2} {
			got := []*relation.Relation{r1, r2}[i]
			sep, err := EvalOpts(q, db, nil, opts)
			if err != nil {
				t.Fatalf("EvalOpts: %v\nquery: %s", err, q)
			}
			same := got.Name == sep.Name && got.Len() == sep.Len()
			for j := 0; same && j < got.Len(); j++ {
				same = got.Tuples[j].Identical(sep.Tuples[j])
			}
			if !same {
				t.Fatalf("NoPlan %v: EvalPair's q%d differs from EvalOpts\nq1: %s\nq2: %s", opts.NoPlan, i+1, q1, q2)
			}
		}
		modes = append(modes, opts)
	}
	checkFirstDiff(t, db, q1, q2, modes)
	eqBool := func(x, y bool) bool { return x == y }
	eqCount := func(x, y Count) bool { return x == y }
	checkSharedSemiring(t, Set, db, q1, q2, modes, eqBool, eqBool)
	checkSharedSemiring(t, Counting, db, q1, q2, modes, eqCount, eqCount)
	checkSharedSemiring(t, Why, db, q1, q2, modes, sameProv, sameCNF)

	for _, opts := range modes {
		b12, b21, err := EvalBatchDiffs(q1, q2, db, nil, cands, opts)
		if err != nil {
			t.Fatalf("NoPlan %v: EvalBatchDiffs: %v\nq1: %s\nq2: %s", opts.NoPlan, err, q1, q2)
		}
		for k, want := range candWant {
			if !sameKeySets(want.d12, keySet(b12.ResultFor(k))) || !sameKeySets(want.d21, keySet(b21.ResultFor(k))) {
				t.Fatalf("NoPlan %v: EvalBatchDiffs candidate %d differs from the reference\nq1: %s\nq2: %s", opts.NoPlan, k, q1, q2)
			}
		}

		p, err := PrepareDiff(q1, q2, db, nil, opts)
		if errors.Is(err, ErrRowBudget) || errors.Is(err, ErrNotIncremental) {
			// PrepareDiff plans without the Yannakakis pass, so the planner
			// may refuse a join order here that it runs elsewhere; and
			// derivation counts past maxSafeCount are refused by design.
			continue
		}
		if err != nil {
			t.Fatalf("NoPlan %v: PrepareDiff: %v\nq1: %s\nq2: %s", opts.NoPlan, err, q1, q2)
		}
		for i, removed := range steps {
			res, err := p.ApplyDelta(removed, nil)
			if err != nil {
				t.Fatalf("NoPlan %v: ApplyDelta: %v", opts.NoPlan, err)
			}
			d12, err1 := res.Diff12()
			d21, err2 := res.Diff21()
			if err1 != nil || err2 != nil {
				t.Fatalf("NoPlan %v: materializing the delta: %v %v", opts.NoPlan, err1, err2)
			}
			if !sameKeySets(stepWant[i].d12, keySet(d12.Tuples)) || !sameKeySets(stepWant[i].d21, keySet(d21.Tuples)) {
				t.Fatalf("NoPlan %v: PrepareDiff after %d deletion steps differs from the reference\nq1: %s\nq2: %s", opts.NoPlan, i+1, q1, q2)
			}
			if err := res.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// firstDiffBudgets are the tight row budgets FirstDiff is checked under.
var firstDiffBudgets = []int{1, 4, 16}

// firstWitnessRule is the rule FirstDiff implements, over EvalPair's
// results: the first tuple of Q1 − Q2, else the first of Q2 − Q1.
func firstWitnessRule(q1, q2 ra.Node, db *relation.Database, opts Options) (relation.Tuple, bool, error) {
	r1, r2, err := EvalPair(q1, q2, db, nil, opts)
	if err != nil {
		return nil, false, err
	}
	if d := r1.SetDiff(r2); d.Len() > 0 {
		return d.Tuples[0], true, nil
	}
	if d := r2.SetDiff(r1); d.Len() > 0 {
		return d.Tuples[0], false, nil
	}
	return nil, false, nil
}

// checkFirstDiff checks FirstDiff in each of modes against the first-witness
// rule over EvalPair. Under each tight MaxRows it must succeed wherever
// EvalPair succeeds; it may succeed where EvalPair exceeds the budget, and
// whenever it succeeds it must pick the unbudgeted rule's tuple.
func checkFirstDiff(t *testing.T, db *relation.Database, q1, q2 ra.Node, modes []Options) {
	t.Helper()
	for _, opts := range modes {
		want, wantQ1, err := firstWitnessRule(q1, q2, db, opts)
		if err != nil {
			t.Fatalf("NoPlan %v: EvalPair: %v\nq1: %s\nq2: %s", opts.NoPlan, err, q1, q2)
		}
		for _, max := range append([]int{0}, firstDiffBudgets...) {
			o := opts
			o.MaxRows = max
			got, gotQ1, err := FirstDiff(q1, q2, db, nil, o)
			if err != nil {
				if _, _, ruleErr := firstWitnessRule(q1, q2, db, o); !errors.Is(err, ErrRowBudget) || ruleErr == nil {
					t.Fatalf("NoPlan %v, MaxRows %d: FirstDiff failed (%v) where EvalPair gave %v\nq1: %s\nq2: %s", opts.NoPlan, max, err, ruleErr, q1, q2)
				}
				continue
			}
			if (got == nil) != (want == nil) || got != nil && (!got.Identical(want) || gotQ1 != wantQ1) {
				t.Fatalf("NoPlan %v, MaxRows %d: FirstDiff picked %v (in Q1: %v), the rule %v (in Q1: %v)\nq1: %s\nq2: %s",
					opts.NoPlan, max, got, gotQ1, want, wantQ1, q1, q2)
			}
		}
	}
}

// TestDifferentialShared: pairs of random plans that share a random subtree
// give, through the shared entry points, exactly what separate evaluation
// and the reference give.
func TestDifferentialShared(t *testing.T) {
	rng := rand.New(rand.NewSource(1917))
	for trial := 0; trial < 150; trial++ {
		db := randomInstance(rng)
		q1, q2 := randomSharedPair(rng)
		checkShared(t, rng, db, q1, q2)
	}
}

// byteSource is a rand.Source that reads its numbers from fuzz input, one
// byte per number, so that mutating the input mutates the instance and plans
// drawn from it. Past the end of the input it yields zeros.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) Int63() int64 {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	// Every byte of the result is b, so both the high bits that Int31
	// keeps and the low bits a power-of-two Intn masks depend on it.
	return int64(uint64(b) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzSharedEval checks the shared entry points on an instance and a plan
// pair drawn from the fuzz input: its first eight bytes seed the instance
// and the check's own draws, and the rest spell the plan pair. Plans take
// a few dozen bytes, which keeps the fuzzer's minimization of an input short.
func FuzzSharedEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("shared subtree"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed [8]byte
		n := copy(seed[:], data)
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
		db := randomInstance(rng)
		q1, q2 := randomSharedPair(rand.New(&byteSource{data: data[n:]}))
		checkShared(t, rng, db, q1, q2)
	})
}
