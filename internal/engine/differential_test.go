package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file differentially tests the hash-based engine against an
// independent reference evaluator that uses only nested loops and linear
// scans and never optimizes, over random instances (with NULLs) and random
// SPJUD plans, for all three semirings, and over random γ plans under set
// semantics and counting.

// refRel is the reference evaluator's annotated relation: no index, linear
// probes only.
type refRel[T any] struct {
	schema relation.Schema
	tuples []relation.Tuple
	anns   []T
}

func (r *refRel[T]) add(s Semiring[T], t relation.Tuple, ann T) {
	for i, u := range r.tuples {
		if u.Identical(t) {
			r.anns[i] = s.Plus(r.anns[i], ann)
			return
		}
	}
	r.tuples = append(r.tuples, t)
	r.anns = append(r.anns, ann)
}

func (r *refRel[T]) lookup(t relation.Tuple) int {
	for i, u := range r.tuples {
		if u.Identical(t) {
			return i
		}
	}
	return -1
}

// refEval evaluates q naively: nested-loop joins, linear duplicate merging,
// no optimizer rewrites.
func refEval[T any](s Semiring[T], q ra.Node, db *relation.Database, params map[string]relation.Value) (*refRel[T], error) {
	switch x := q.(type) {
	case *ra.Rel:
		rel := db.Relation(x.Name)
		if rel == nil {
			return nil, fmt.Errorf("ref: unknown relation %q", x.Name)
		}
		out := &refRel[T]{schema: rel.Schema}
		for i, t := range rel.Tuples {
			ann, err := s.Leaf(rel.ID(i))
			if err != nil {
				return nil, err
			}
			out.add(s, t, ann)
		}
		return out, nil
	case *ra.Select:
		in, err := refEval(s, x.In, db, params)
		if err != nil {
			return nil, err
		}
		pred, err := ra.CompileExpr(x.Pred, in.schema, params)
		if err != nil {
			return nil, err
		}
		out := &refRel[T]{schema: in.schema}
		for i, t := range in.tuples {
			v, err := pred(t)
			if err != nil {
				return nil, err
			}
			if ra.Truthy(v) {
				out.add(s, t, in.anns[i])
			}
		}
		return out, nil
	case *ra.Project:
		in, err := refEval(s, x.In, db, params)
		if err != nil {
			return nil, err
		}
		idxs, outSchema, err := projectPlan(x, in.schema)
		if err != nil {
			return nil, err
		}
		out := &refRel[T]{schema: outSchema}
		for i, t := range in.tuples {
			out.add(s, t.Project(idxs), in.anns[i])
		}
		return out, nil
	case *ra.Join:
		l, err := refEval(s, x.L, db, params)
		if err != nil {
			return nil, err
		}
		r, err := refEval(s, x.R, db, params)
		if err != nil {
			return nil, err
		}
		if x.Cond != nil {
			outSchema := l.schema.Concat(r.schema)
			pred, err := ra.CompileExpr(x.Cond, outSchema, params)
			if err != nil {
				return nil, err
			}
			out := &refRel[T]{schema: outSchema}
			for li, lt := range l.tuples {
				for ri, rt := range r.tuples {
					t := lt.Concat(rt)
					v, err := pred(t)
					if err != nil {
						return nil, err
					}
					if ra.Truthy(v) {
						out.add(s, t, s.Times(l.anns[li], r.anns[ri]))
					}
				}
			}
			return out, nil
		}
		shared, rOnly := ra.NaturalJoinCols(l.schema, r.schema)
		attrs := append([]relation.Attribute{}, l.schema.Attrs...)
		for _, j := range rOnly {
			attrs = append(attrs, r.schema.Attrs[j])
		}
		out := &refRel[T]{schema: relation.Schema{Attrs: attrs}}
		for li, lt := range l.tuples {
			for ri, rt := range r.tuples {
				match := true
				for _, p := range shared {
					// Shared columns compare as `=` does: NULLs never
					// join, and numbers compare by value across kinds.
					if !lt[p[0]].Equal(rt[p[1]]) {
						match = false
						break
					}
				}
				if match {
					out.add(s, lt.Concat(rt.Project(rOnly)), s.Times(l.anns[li], r.anns[ri]))
				}
			}
		}
		return out, nil
	case *ra.Union:
		l, err := refEval(s, x.L, db, params)
		if err != nil {
			return nil, err
		}
		r, err := refEval(s, x.R, db, params)
		if err != nil {
			return nil, err
		}
		out := &refRel[T]{schema: l.schema}
		for i, t := range l.tuples {
			out.add(s, t, l.anns[i])
		}
		for i, t := range r.tuples {
			out.add(s, t, r.anns[i])
		}
		return out, nil
	case *ra.Diff:
		l, err := refEval(s, x.L, db, params)
		if err != nil {
			return nil, err
		}
		r, err := refEval(s, x.R, db, params)
		if err != nil {
			return nil, err
		}
		out := &refRel[T]{schema: l.schema}
		for i, t := range l.tuples {
			rAnn := s.Zero()
			if j := r.lookup(t); j >= 0 {
				rAnn = r.anns[j]
			}
			ann := s.Minus(l.anns[i], rAnn)
			if s.IsZero(ann) {
				continue
			}
			out.add(s, t, ann)
		}
		return out, nil
	case *ra.Rename:
		in, err := refEval(s, x.In, db, params)
		if err != nil {
			return nil, err
		}
		return &refRel[T]{schema: in.schema.Qualify(x.As), tuples: in.tuples, anns: in.anns}, nil
	case *ra.GroupBy:
		in, err := refEval(s, x.In, db, params)
		if err != nil {
			return nil, err
		}
		return refGroupBy(s, x, in)
	}
	return nil, fmt.Errorf("ref: unsupported node %T", q)
}

// refGroupBy evaluates γ without the engine's grouping or computeAgg:
// groups are found by linear search over the input's support in
// first-occurrence order, each aggregate is folded over its members'
// non-NULL values in Go arithmetic, and every output row is annotated One.
// It covers the aggregates randomGroupBy draws: count, integer sum, and
// min/max over integers or strings.
func refGroupBy[T any](s Semiring[T], g *ra.GroupBy, in *refRel[T]) (*refRel[T], error) {
	var attrs []relation.Attribute
	gIdx := make([]int, len(g.GroupCols))
	for i, c := range g.GroupCols {
		j, err := in.schema.Resolve(c)
		if err != nil {
			return nil, err
		}
		gIdx[i] = j
		attrs = append(attrs, relation.Attribute{Name: c, Type: in.schema.Attrs[j].Type})
	}
	aIdx := make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		aIdx[i] = -1
		typ := relation.KindInt
		if a.Attr != "" {
			j, err := in.schema.Resolve(a.Attr)
			if err != nil {
				return nil, err
			}
			aIdx[i] = j
			if a.Func != ra.Count {
				typ = in.schema.Attrs[j].Type
			}
		}
		attrs = append(attrs, relation.Attribute{Name: a.As, Type: typ})
	}
	var keys []relation.Tuple
	var members [][]relation.Tuple
	for i, t := range in.tuples {
		if s.IsZero(in.anns[i]) {
			continue
		}
		k := t.Project(gIdx)
		gi := 0
		for gi < len(keys) && !keys[gi].Identical(k) {
			gi++
		}
		if gi == len(keys) {
			keys = append(keys, k)
			members = append(members, nil)
		}
		members[gi] = append(members[gi], t)
	}
	out := &refRel[T]{schema: relation.Schema{Attrs: attrs}}
	for gi, k := range keys {
		row := append(relation.Tuple{}, k...)
		for i, a := range g.Aggs {
			v, err := refAgg(a.Func, aIdx[i], members[gi])
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.add(s, row, s.One())
	}
	return out, nil
}

// refAgg folds one aggregate over a group's members; col < 0 is count(*).
func refAgg(f ra.AggFunc, col int, members []relation.Tuple) (relation.Value, error) {
	if col < 0 {
		return relation.Int(int64(len(members))), nil
	}
	var n, sum int64
	best := relation.Null()
	for _, t := range members {
		v := t[col]
		if v.IsNull() {
			continue
		}
		n++
		switch v.Kind() {
		case relation.KindInt:
			sum += v.AsInt()
			if best.IsNull() || (f == ra.Min && v.AsInt() < best.AsInt()) || (f == ra.Max && v.AsInt() > best.AsInt()) {
				best = v
			}
		case relation.KindString:
			if f == ra.Sum {
				return relation.Null(), fmt.Errorf("ref: sum over strings")
			}
			if best.IsNull() || (f == ra.Min && v.AsString() < best.AsString()) || (f == ra.Max && v.AsString() > best.AsString()) {
				best = v
			}
		default:
			return relation.Null(), fmt.Errorf("ref: unsupported value kind %s", v.Kind())
		}
	}
	switch f {
	case ra.Count:
		return relation.Int(n), nil
	case ra.Sum:
		if n == 0 {
			return relation.Null(), nil
		}
		return relation.Int(sum), nil
	case ra.Min, ra.Max:
		return best, nil
	}
	return relation.Null(), fmt.Errorf("ref: unsupported aggregate %s", f)
}

// randomDB builds three union-compatible relations with small value domains
// (to force joins and duplicates) and ~15% NULLs.
func randomDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	schema := relation.NewSchema(
		relation.Attr("a", relation.KindInt),
		relation.Attr("b", relation.KindInt),
		relation.Attr("c", relation.KindString))
	strs := []string{"x", "y", "z"}
	for _, name := range []string{"R", "S", "T"} {
		db.CreateRelation(name, schema)
		n := 3 + rng.Intn(8)
		for i := 0; i < n; i++ {
			b := relation.Null()
			if rng.Intn(7) != 0 {
				b = relation.Int(int64(rng.Intn(3)))
			}
			c := relation.Null()
			if rng.Intn(7) != 0 {
				c = relation.String(strs[rng.Intn(len(strs))])
			}
			db.Insert(name, relation.NewTuple(relation.Int(int64(rng.Intn(4))), b, c))
		}
	}
	return db
}

// randomMixedDB is randomDB with mixed numeric kinds: S holds floats in a
// and b, R and T ints, so joins, selections and key probes compare ints
// with floats. b's domain includes ints beyond 2^53 beside their float64
// rounding (2^53 + 1 rounds to the float 2^53), where `=` is exact.
func randomMixedDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	strs := []string{"x", "y", "z"}
	const big = 1 << 53
	ints := []relation.Value{relation.Int(0), relation.Int(1), relation.Int(2), relation.Int(big), relation.Int(big + 1)}
	floats := []relation.Value{relation.Float(0), relation.Float(1), relation.Float(2), relation.Float(0.5), relation.Float(big)}
	for _, name := range []string{"R", "S", "T"} {
		kind, bs := relation.KindInt, ints
		if name == "S" {
			kind, bs = relation.KindFloat, floats
		}
		db.CreateRelation(name, relation.NewSchema(
			relation.Attr("a", kind),
			relation.Attr("b", kind),
			relation.Attr("c", relation.KindString)))
		n := 3 + rng.Intn(8)
		for i := 0; i < n; i++ {
			a := relation.Int(int64(rng.Intn(4)))
			if kind == relation.KindFloat {
				a = relation.Float(float64(rng.Intn(4)))
			}
			b := relation.Null()
			if rng.Intn(7) != 0 {
				b = bs[rng.Intn(len(bs))]
			}
			c := relation.Null()
			if rng.Intn(7) != 0 {
				c = relation.String(strs[rng.Intn(len(strs))])
			}
			db.Insert(name, relation.NewTuple(a, b, c))
		}
	}
	return db
}

// randomInstance draws randomDB or randomMixedDB.
func randomInstance(rng *rand.Rand) *relation.Database {
	if rng.Intn(2) == 0 {
		return randomMixedDB(rng)
	}
	return randomDB(rng)
}

// randomCompat generates a random plan whose output schema stays (a, b, c),
// so union/difference operands are always compatible.
func randomCompat(rng *rand.Rand, depth int) ra.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		return &ra.Rel{Name: []string{"R", "S", "T"}[rng.Intn(3)]}
	}
	switch rng.Intn(4) {
	case 0:
		return &ra.Select{Pred: randomPred(rng, ""), In: randomCompat(rng, depth-1)}
	case 1:
		return &ra.Union{L: randomCompat(rng, depth-1), R: randomCompat(rng, depth-1)}
	case 2:
		return &ra.Diff{L: randomCompat(rng, depth-1), R: randomCompat(rng, depth-1)}
	default:
		// Natural join of identically-named schemas: joins on every column.
		return &ra.Join{L: randomCompat(rng, depth-1), R: randomCompat(rng, depth-1)}
	}
}

// randomPred builds a comparison over the (a, b, c) columns, optionally
// qualified.
func randomPred(rng *rand.Rand, qual string) ra.Expr {
	col := func(name string) *ra.AttrRef {
		if qual != "" {
			name = qual + "." + name
		}
		return &ra.AttrRef{Name: name}
	}
	ops := []ra.CmpOp{ra.EQ, ra.NE, ra.LT, ra.LE, ra.GT, ra.GE}
	switch rng.Intn(4) {
	case 0:
		return &ra.Cmp{Op: ops[rng.Intn(len(ops))], L: col("a"), R: &ra.Const{Val: relation.Int(int64(rng.Intn(4)))}}
	case 1:
		return &ra.Cmp{Op: ops[rng.Intn(len(ops))], L: col("b"), R: &ra.Const{Val: relation.Int(int64(rng.Intn(3)))}}
	case 2:
		return &ra.Cmp{Op: ra.EQ, L: col("c"), R: &ra.Const{Val: relation.String([]string{"x", "y", "z"}[rng.Intn(3)])}}
	default:
		return &ra.Cmp{Op: ops[rng.Intn(len(ops))], L: col("a"), R: col("b")}
	}
}

// randomPlan optionally tops a compatible plan with a theta equi-join
// (exercising the hash equi-join path, including NULL join keys and
// residual conditions), a join or selection over a cross product whose
// names are bare on the left and qualified on the right, and/or a
// projection.
func randomPlan(rng *rand.Rand) ra.Node {
	q := randomCompat(rng, 2)
	switch rng.Intn(4) {
	case 0:
		cond := ra.Expr(&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u.a"}, R: &ra.AttrRef{Name: "v.a"}})
		if rng.Intn(2) == 0 {
			// Add a second equi-key on a NULLable column.
			cond = &ra.And{Kids: []ra.Expr{cond,
				&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u.b"}, R: &ra.AttrRef{Name: "v.b"}}}}
		}
		if rng.Intn(2) == 0 {
			// Residual θ-condition forcing the hybrid hash+filter path.
			cond = &ra.And{Kids: []ra.Expr{cond,
				&ra.Cmp{Op: ra.LE, L: &ra.AttrRef{Name: "u.b"}, R: &ra.AttrRef{Name: "v.a"}}}}
		}
		q = &ra.Join{
			L:    &ra.Rename{As: "u", In: q},
			R:    &ra.Rename{As: "v", In: randomCompat(rng, 1)},
			Cond: cond,
		}
		if rng.Intn(2) == 0 {
			q = &ra.Project{Cols: []string{"u.a", "v.c"}, In: q}
		}
	case 1:
		q = &ra.Project{Cols: []string{"a", "c"}, In: q}
	case 2:
		q = randomBareQualified(rng, q, randomCompat(rng, 1))
	}
	return q
}

// randomBareQualified joins l, whose names stay bare, with r renamed m, on
// equalities that name a base name both ways, as TPC-H Q21's
// `join[l_orderkey = m.l_orderkey]` does: either as a θ-join condition or
// as a selection over their cross product, which the optimizer pushes into
// the join.
func randomBareQualified(rng *rand.Rand, l, r ra.Node) ra.Node {
	eq := func(col string) ra.Expr {
		x, y := &ra.AttrRef{Name: col}, &ra.AttrRef{Name: "m." + col}
		if rng.Intn(2) == 0 {
			return &ra.Cmp{Op: ra.EQ, L: x, R: y}
		}
		return &ra.Cmp{Op: ra.EQ, L: y, R: x}
	}
	kids := []ra.Expr{eq([]string{"a", "b"}[rng.Intn(2)])}
	if rng.Intn(2) == 0 {
		kids = append(kids, eq("c"))
	}
	if rng.Intn(3) == 0 {
		// A one-sided conjunct on a qualified name, which must reach the
		// right input only.
		kids = append(kids, &ra.Cmp{Op: ra.NE, L: &ra.AttrRef{Name: "m.b"}, R: &ra.Const{Val: relation.Int(1)}})
	}
	rm := &ra.Rename{As: "m", In: r}
	var q ra.Node
	if rng.Intn(2) == 0 {
		q = &ra.Join{L: l, R: rm, Cond: andOf(kids)}
	} else {
		cross := &ra.Cmp{Op: ra.EQ, L: &ra.Const{Val: relation.Int(1)}, R: &ra.Const{Val: relation.Int(1)}}
		q = &ra.Select{Pred: andOf(kids), In: &ra.Join{L: l, R: rm, Cond: cross}}
	}
	if rng.Intn(2) == 0 {
		q = &ra.Project{Cols: []string{"a", "m.c"}, In: q}
	}
	return q
}

// randomGroupBy builds γ over a random compatible plan, mixing group-key
// arities (including the single whole-input group) and aggregate functions.
func randomGroupBy(rng *rand.Rand) *ra.GroupBy {
	var cols []string
	switch rng.Intn(3) {
	case 0:
		cols = []string{"a"}
	case 1:
		cols = []string{"a", "c"}
	}
	return &ra.GroupBy{
		GroupCols: cols,
		Aggs: []ra.AggSpec{
			{Func: ra.Count, As: "n"},
			{Func: ra.Sum, Attr: "b", As: "s"},
			{Func: ra.Min, Attr: "c", As: "mn"},
			{Func: ra.Max, Attr: "a", As: "mx"},
			{Func: ra.Count, Attr: "b", As: "nb"},
		},
		In: randomCompat(rng, 2),
	}
}

func keySet(tuples []relation.Tuple) map[string]bool {
	m := make(map[string]bool, len(tuples))
	for _, t := range tuples {
		m[t.Key()] = true
	}
	return m
}

func sameKeySets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestDifferentialSetSemiring: hash engine ≡ nested-loop reference under
// set semantics.
func TestDifferentialSetSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(20190701))
	for trial := 0; trial < 300; trial++ {
		db := randomInstance(rng)
		q := randomPlan(rng)
		want, err := refEval[bool](Set, q, db, nil)
		if err != nil {
			t.Fatalf("trial %d: ref: %v\n%s", trial, err, q)
		}
		got, err := Eval(q, db, nil)
		if err != nil {
			t.Fatalf("trial %d: engine: %v\n%s", trial, err, q)
		}
		if !sameKeySets(keySet(want.tuples), keySet(got.Tuples)) {
			t.Fatalf("trial %d: set results differ\nquery: %s\nwant %v\ngot %v\n%s",
				trial, q, want.tuples, got.Tuples, db)
		}
	}
}

// TestDifferentialCountSemiring: derivation counts agree tuple-by-tuple.
func TestDifferentialCountSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(8086))
	for trial := 0; trial < 300; trial++ {
		db := randomInstance(rng)
		q := randomPlan(rng)
		want, err := refEval[Count](Counting, q, db, nil)
		if err != nil {
			t.Fatalf("trial %d: ref: %v\n%s", trial, err, q)
		}
		got, err := Run[Count](Counting, q, db, nil)
		if err != nil {
			t.Fatalf("trial %d: engine: %v\n%s", trial, err, q)
		}
		if got.Len() != len(want.tuples) {
			t.Fatalf("trial %d: support sizes differ: want %d got %d\nquery: %s",
				trial, len(want.tuples), got.Len(), q)
		}
		for i, tup := range want.tuples {
			j := got.Lookup(tup)
			if j < 0 {
				t.Fatalf("trial %d: engine missing %v\nquery: %s", trial, tup, q)
			}
			if got.Anns[j] != want.anns[i] {
				t.Fatalf("trial %d: count of %v: want %d got %d\nquery: %s",
					trial, tup, want.anns[i], got.Anns[j], q)
			}
		}
	}
}

// TestDifferentialWhySemiring: provenance expressions are logically
// equivalent between engine and reference (checked on random assignments),
// and agree with ground truth: prov(t) holds on a subinstance iff t is in
// the query result there.
func TestDifferentialWhySemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		db := randomInstance(rng)
		q := randomPlan(rng)
		want, err := refEval(Why, q, db, nil)
		if err != nil {
			t.Fatalf("trial %d: ref: %v\n%s", trial, err, q)
		}
		got, err := EvalProv(q, db, nil)
		if err != nil {
			t.Fatalf("trial %d: engine: %v\n%s", trial, err, q)
		}
		if got.Len() != len(want.tuples) {
			t.Fatalf("trial %d: tuple sets differ: want %d got %d\nquery: %s\nwant %v\ngot %v",
				trial, len(want.tuples), got.Len(), q, want.tuples, got.Tuples)
		}
		allIDs := db.AllIDs()
		// Random-assignment equivalence between the two provenance exprs.
		for k := 0; k < 32; k++ {
			assign := map[int]bool{}
			for _, id := range allIDs {
				assign[int(id)] = rng.Intn(2) == 0
			}
			fn := func(id int) bool { return assign[id] }
			for i, tup := range want.tuples {
				j := got.Lookup(tup)
				if j < 0 {
					t.Fatalf("trial %d: engine missing %v\nquery: %s", trial, tup, q)
				}
				if want.anns[i].Eval(fn) != got.Anns[j].Eval(fn) {
					t.Fatalf("trial %d: provenance of %v inequivalent\nref: %s\nengine: %s\nquery: %s",
						trial, tup, want.anns[i], got.Anns[j], q)
				}
			}
		}
		// Ground truth on random subinstances, using the reference
		// set-semantics evaluator as the oracle.
		for k := 0; k < 6; k++ {
			keep := map[relation.TupleID]bool{}
			ids := map[int]bool{}
			for _, id := range allIDs {
				if rng.Intn(2) == 0 {
					keep[id] = true
					ids[int(id)] = true
				}
			}
			sub := db.Subinstance(keep)
			res, err := refEval[bool](Set, q, sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			inRes := keySet(res.tuples)
			fn := func(id int) bool { return ids[id] }
			for j, tup := range got.Tuples {
				if got.Anns[j].Eval(fn) != inRes[tup.Key()] {
					t.Fatalf("trial %d: provenance of %v wrong on subinstance %v\nprov: %s\nquery: %s",
						trial, tup, ids, got.Anns[j], q)
				}
			}
		}
	}
}

// TestDifferentialGroupBy: γ ≡ the reference's γ over random groupings,
// row for row and annotation for annotation, under set semantics and
// counting.
func TestDifferentialGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 200; trial++ {
		db := randomDB(rng)
		q := randomGroupBy(rng)
		checkAgainstRef[bool](t, Set, trial, q, db)
		checkAgainstRef[Count](t, Counting, trial, q, db)
	}
}

// checkAgainstRef fails the test unless the engine and the reference
// evaluator return the same tuples with equal annotations.
func checkAgainstRef[T comparable](t *testing.T, s Semiring[T], trial int, q ra.Node, db *relation.Database) {
	t.Helper()
	want, err := refEval(s, q, db, nil)
	if err != nil {
		t.Fatalf("trial %d: %s: ref: %v\n%s", trial, s.Name(), err, q)
	}
	got, err := Run(s, q, db, nil)
	if err != nil {
		t.Fatalf("trial %d: %s: engine: %v\n%s", trial, s.Name(), err, q)
	}
	if got.Len() != len(want.tuples) {
		t.Fatalf("trial %d: %s: sizes differ: want %d got %d\nquery: %s\nwant %v\ngot %v",
			trial, s.Name(), len(want.tuples), got.Len(), q, want.tuples, got.Tuples)
	}
	for i, tup := range want.tuples {
		j := got.Lookup(tup)
		if j < 0 {
			t.Fatalf("trial %d: %s: engine missing %v\nquery: %s\ngot %v", trial, s.Name(), tup, q, got.Tuples)
		}
		if got.Anns[j] != want.anns[i] {
			t.Fatalf("trial %d: %s: annotation of %v: want %v got %v\nquery: %s",
				trial, s.Name(), tup, want.anns[i], got.Anns[j], q)
		}
	}
}
