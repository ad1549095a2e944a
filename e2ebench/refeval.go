package main

// A tuple-at-a-time reference evaluator of the RA AST, used to check the
// program's answers. It shares no code with internal/engine: it walks the
// tree, iterates tuples, and keeps sets as maps keyed by relation.Tuple.Key.
// Only expression compilation (ra.CompileExpr), output schemas (ra.OutSchema)
// and value arithmetic come from the program's data model.
//
// The one concession to speed is that a selection's conjuncts travel down
// into the joins below it, and conjuncts equating a left and a right
// attribute become hash keys. Without that, checking a session's final grade
// on a course instance would enumerate the triple cross product of question
// q5 (|Student|·|Registration|² tuples).

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
)

// refRel is a set of tuples under a schema.
type refRel struct {
	schema relation.Schema
	rows   []relation.Tuple
}

// minus returns the rows of r that are not in o.
func (r *refRel) minus(o *refRel) []relation.Tuple {
	in := make(map[string]bool, len(o.rows))
	for _, t := range o.rows {
		in[t.Key()] = true
	}
	var out []relation.Tuple
	for _, t := range r.rows {
		if !in[t.Key()] {
			out = append(out, t)
		}
	}
	return out
}

type refCatalog struct{ db *relation.Database }

func (c refCatalog) RelationSchema(name string) (relation.Schema, bool) {
	r := c.db.Relation(name)
	if r == nil {
		return relation.Schema{}, false
	}
	return r.Schema, true
}

type refEvaluator struct {
	db     *relation.Database
	cat    refCatalog
	params map[string]relation.Value
}

// refEval evaluates q on db under set semantics with the given @-parameter
// bindings.
func refEval(q ra.Node, db *relation.Database, params map[string]relation.Value) (*refRel, error) {
	ev := &refEvaluator{db: db, cat: refCatalog{db}, params: params}
	return ev.eval(q, nil)
}

// refDiffers evaluates both queries and reports Q1−Q2 and Q2−Q1.
func refDiffers(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value) (d12, d21 []relation.Tuple, err error) {
	r1, err := refEval(q1, db, params)
	if err != nil {
		return nil, nil, fmt.Errorf("reference evaluation of Q1: %w", err)
	}
	r2, err := refEval(q2, db, params)
	if err != nil {
		return nil, nil, fmt.Errorf("reference evaluation of Q2: %w", err)
	}
	return r1.minus(r2), r2.minus(r1), nil
}

// eval evaluates n and keeps the rows satisfying every conjunct of filter,
// which are predicates over n's output schema.
func (ev *refEvaluator) eval(n ra.Node, filter []ra.Expr) (*refRel, error) {
	schema, err := ra.OutSchema(n, ev.cat)
	if err != nil {
		return nil, err
	}
	var rows []relation.Tuple
	switch x := n.(type) {
	case *ra.Select:
		return ev.eval(x.In, append(conjuncts(x.Pred), filter...))
	case *ra.Join:
		return ev.join(x, schema, filter)
	case *ra.Rel:
		rows = ev.db.Relation(x.Name).Tuples
	case *ra.Rename:
		in, err := ev.eval(x.In, nil)
		if err != nil {
			return nil, err
		}
		rows = in.rows
	case *ra.Project:
		in, err := ev.eval(x.In, nil)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			if idx[i], err = in.schema.Resolve(c); err != nil {
				return nil, err
			}
		}
		for _, t := range in.rows {
			p := make(relation.Tuple, len(idx))
			for i, j := range idx {
				p[i] = t[j]
			}
			rows = append(rows, p)
		}
	case *ra.Union, *ra.Diff:
		kids := n.Children()
		l, err := ev.eval(kids[0], nil)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(kids[1], nil)
		if err != nil {
			return nil, err
		}
		if _, ok := n.(*ra.Union); ok {
			rows = append(append(rows, l.rows...), r.rows...)
		} else {
			rows = l.minus(r)
		}
	case *ra.GroupBy:
		in, err := ev.eval(x.In, nil)
		if err != nil {
			return nil, err
		}
		if rows, err = groupRows(x, in); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("reference evaluator: unsupported operator %T", n)
	}
	return ev.keep(schema, dedup(rows), filter)
}

// keep returns the rows satisfying every conjunct.
func (ev *refEvaluator) keep(schema relation.Schema, rows []relation.Tuple, filter []ra.Expr) (*refRel, error) {
	preds, err := ev.compile(filter, schema)
	if err != nil {
		return nil, err
	}
	out := &refRel{schema: schema}
	for _, t := range rows {
		ok, err := holds(preds, t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.rows = append(out.rows, t)
		}
	}
	return out, nil
}

// join evaluates a theta join (Cond set; a cross product is a theta join on
// true) or a natural join (Cond nil), with filter conjuncts over its output.
// Conjuncts over one side are evaluated below the join; conjuncts equating a
// left and a right attribute key a hash table on the right input.
func (ev *refEvaluator) join(j *ra.Join, out relation.Schema, filter []ra.Expr) (*refRel, error) {
	ls, err := ra.OutSchema(j.L, ev.cat)
	if err != nil {
		return nil, err
	}
	rs, err := ra.OutSchema(j.R, ev.cat)
	if err != nil {
		return nil, err
	}
	// rCol maps an output column at or past len(ls) to its right-input column.
	rCol := map[int]int{}
	var lKey, rKey []int
	if j.Cond == nil {
		for c, a := range rs.Attrs {
			if i := ls.IndexExact(a.Name); i >= 0 {
				lKey, rKey = append(lKey, i), append(rKey, c)
			} else {
				rCol[len(ls.Attrs)+len(rCol)] = c
			}
		}
	} else {
		for c := range rs.Attrs {
			rCol[len(ls.Attrs)+c] = c
		}
		filter = append(conjuncts(j.Cond), filter...)
	}
	natural := len(lKey)
	var lf, rf, post []ra.Expr
	for _, c := range filter {
		cols, ok := columnsOf(c, out)
		switch {
		case !ok:
			post = append(post, c)
		case allBelow(cols, len(ls.Attrs)) && sameColumns(c, cols, ls, func(i int) int { return i }):
			lf = append(lf, c)
		case allAtOrAbove(cols, len(ls.Attrs)) && sameColumns(c, cols, rs, func(i int) int { return rCol[i] }):
			rf = append(rf, c)
		default:
			// Equalities across the two sides become hash keys; they are
			// still re-checked after the probe, so a key collision between
			// unequal values only costs time.
			if cmp, isCmp := c.(*ra.Cmp); isCmp && cmp.Op == ra.EQ && len(cols) == 2 {
				a, b := cols[0], cols[1]
				if b < a {
					a, b = b, a
				}
				if a < len(ls.Attrs) && b >= len(ls.Attrs) && isAttr(cmp.L) && isAttr(cmp.R) {
					lKey, rKey = append(lKey, a), append(rKey, rCol[b])
				}
			}
			post = append(post, c)
		}
	}
	l, err := ev.eval(j.L, lf)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(j.R, rf)
	if err != nil {
		return nil, err
	}
	checks, err := ev.compile(post, out)
	if err != nil {
		return nil, err
	}
	index := map[string][]relation.Tuple{}
	for _, t := range r.rows {
		if k, ok := hashKey(t, rKey); ok {
			index[k] = append(index[k], t)
		}
	}
	var rows []relation.Tuple
	for _, lt := range l.rows {
		k, ok := hashKey(lt, lKey)
		if !ok {
			continue
		}
		for _, rt := range index[k] {
			match := true
			for i := 0; i < natural; i++ {
				if !lt[lKey[i]].Equal(rt[rKey[i]]) {
					match = false
				}
			}
			if !match {
				continue
			}
			t := make(relation.Tuple, 0, len(out.Attrs))
			t = append(t, lt...)
			for c := len(ls.Attrs); c < len(out.Attrs); c++ {
				t = append(t, rt[rCol[c]])
			}
			ok, err := holds(checks, t)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, t)
			}
		}
	}
	return &refRel{schema: out, rows: dedup(rows)}, nil
}

// groupRows evaluates γ: one row per distinct group key of the (already
// distinct) input, holding the key then each aggregate. As in SQL, NULLs
// are skipped by every aggregate but count(*), and an aggregate over only
// NULLs is NULL. An empty input has no groups, so no rows.
func groupRows(g *ra.GroupBy, in *refRel) ([]relation.Tuple, error) {
	gIdx := make([]int, len(g.GroupCols))
	for i, c := range g.GroupCols {
		var err error
		if gIdx[i], err = in.schema.Resolve(c); err != nil {
			return nil, err
		}
	}
	var order []string
	groups := map[string][]relation.Tuple{}
	for _, t := range in.rows {
		key := make(relation.Tuple, len(gIdx))
		for i, j := range gIdx {
			key[i] = t[j]
		}
		k := key.Key()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], t)
	}
	var rows []relation.Tuple
	for _, k := range order {
		members := groups[k]
		row := make(relation.Tuple, 0, len(gIdx)+len(g.Aggs))
		for _, j := range gIdx {
			row = append(row, members[0][j])
		}
		for _, a := range g.Aggs {
			v, err := aggregate(a, in.schema, members)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func aggregate(a ra.AggSpec, schema relation.Schema, members []relation.Tuple) (relation.Value, error) {
	if a.Attr == "" {
		if a.Func != ra.Count {
			return relation.Value{}, fmt.Errorf("reference evaluator: %s(*) is not defined", a.Func)
		}
		return relation.Int(int64(len(members))), nil
	}
	col, err := schema.Resolve(a.Attr)
	if err != nil {
		return relation.Value{}, err
	}
	var vals []relation.Value
	for _, t := range members {
		if !t[col].IsNull() {
			vals = append(vals, t[col])
		}
	}
	if a.Func == ra.Count {
		return relation.Int(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return relation.Null(), nil
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		switch a.Func {
		case ra.Sum, ra.Avg:
			if acc, err = relation.Add(acc, v); err != nil {
				return relation.Value{}, err
			}
		case ra.Min, ra.Max:
			c, ok := v.Compare(acc)
			if !ok {
				return relation.Value{}, fmt.Errorf("reference evaluator: %s over incomparable values", a.Func)
			}
			if (a.Func == ra.Min && c < 0) || (a.Func == ra.Max && c > 0) {
				acc = v
			}
		}
	}
	if a.Func == ra.Avg {
		return relation.Div(acc, relation.Int(int64(len(vals))))
	}
	return acc, nil
}

func (ev *refEvaluator) compile(es []ra.Expr, schema relation.Schema) ([]ra.CompiledExpr, error) {
	out := make([]ra.CompiledExpr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = ra.CompileExpr(e, schema, ev.params); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func holds(preds []ra.CompiledExpr, t relation.Tuple) (bool, error) {
	for _, p := range preds {
		v, err := p(t)
		if err != nil {
			return false, err
		}
		if v.Kind() != relation.KindBool || !v.AsBool() {
			return false, nil
		}
	}
	return true, nil
}

// conjuncts flattens nested conjunctions.
func conjuncts(e ra.Expr) []ra.Expr {
	if a, ok := e.(*ra.And); ok {
		var out []ra.Expr
		for _, k := range a.Kids {
			out = append(out, conjuncts(k)...)
		}
		return out
	}
	return []ra.Expr{e}
}

// columnsOf resolves every attribute the expression reads against schema.
func columnsOf(e ra.Expr, schema relation.Schema) ([]int, bool) {
	var cols []int
	ok := true
	var walk func(ra.Expr)
	walk = func(e ra.Expr) {
		switch x := e.(type) {
		case *ra.AttrRef:
			i, err := schema.Resolve(x.Name)
			if err != nil {
				ok = false
				return
			}
			cols = append(cols, i)
		case *ra.Cmp:
			walk(x.L)
			walk(x.R)
		case *ra.Arith:
			walk(x.L)
			walk(x.R)
		case *ra.And:
			for _, k := range x.Kids {
				walk(k)
			}
		case *ra.Or:
			for _, k := range x.Kids {
				walk(k)
			}
		case *ra.Not:
			walk(x.Kid)
		}
	}
	walk(e)
	return cols, ok
}

// sameColumns reports whether every attribute of e, resolved against the
// input schema, lands on the input column its output column comes from —
// the condition for evaluating e below the join.
func sameColumns(e ra.Expr, cols []int, in relation.Schema, inCol func(int) int) bool {
	got, ok := columnsOf(e, in)
	if !ok || len(got) != len(cols) {
		return false
	}
	for i := range got {
		if got[i] != inCol(cols[i]) {
			return false
		}
	}
	return true
}

func allBelow(cols []int, n int) bool {
	for _, c := range cols {
		if c >= n {
			return false
		}
	}
	return true
}

func allAtOrAbove(cols []int, n int) bool {
	for _, c := range cols {
		if c < n {
			return false
		}
	}
	return len(cols) > 0
}

func isAttr(e ra.Expr) bool {
	_, ok := e.(*ra.AttrRef)
	return ok
}

// hashKey encodes the key columns so that values equal under SQL equality
// (ints and floats compare numerically) encode alike; a NULL never equals
// anything, so a tuple with a NULL key joins nothing.
func hashKey(t relation.Tuple, cols []int) (string, bool) {
	var b strings.Builder
	for _, c := range cols {
		v := t[c]
		switch {
		case v.IsNull():
			return "", false
		case v.IsNumeric():
			b.WriteString("n" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64))
		case v.Kind() == relation.KindString:
			s := v.AsString()
			b.WriteString("s" + strconv.Itoa(len(s)) + ":" + s)
		default:
			b.WriteString("v" + v.String())
		}
		b.WriteByte(0)
	}
	return b.String(), true
}

func dedup(rows []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, t := range rows {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}
