package engine

import (
	"repro/internal/ra"
	"repro/internal/relation"
)

// Optimize rewrites a query for efficient evaluation without changing its
// set-semantics result (or its provenance annotations): selection conjuncts
// are pushed through projections, renames and selects, and into the
// matching side(s) of joins; conjuncts spanning a join become join
// conditions, which the evaluator executes as hash equi-joins.
//
// This plays the role of the SQL optimizer in the paper's implementation
// (Section 6 relies on SQL Server to push the Optσ selection down).
func Optimize(n ra.Node, cat ra.Catalog) ra.Node {
	switch x := n.(type) {
	case *ra.Rel:
		return x
	case *ra.Select:
		in := Optimize(x.In, cat)
		return pushSelect(ra.Conjuncts(x.Pred), in, cat)
	case *ra.Project:
		return &ra.Project{Cols: x.Cols, In: Optimize(x.In, cat)}
	case *ra.Rename:
		return &ra.Rename{As: x.As, In: Optimize(x.In, cat)}
	case *ra.Join:
		j := &ra.Join{L: Optimize(x.L, cat), R: Optimize(x.R, cat), Cond: x.Cond}
		if j.Cond == nil {
			return j
		}
		// Distribute one-sided conjuncts of the join condition.
		return distributeJoinCond(j, cat)
	case *ra.Union:
		return &ra.Union{L: Optimize(x.L, cat), R: Optimize(x.R, cat)}
	case *ra.Diff:
		return &ra.Diff{L: Optimize(x.L, cat), R: Optimize(x.R, cat)}
	case *ra.GroupBy:
		return &ra.GroupBy{GroupCols: x.GroupCols, Aggs: x.Aggs, In: Optimize(x.In, cat)}
	}
	return n
}

func andOf(es []ra.Expr) ra.Expr {
	switch len(es) {
	case 0:
		return nil
	case 1:
		return es[0]
	}
	return &ra.And{Kids: es}
}

// readsSame reports whether every attribute name in e resolves in out, an
// operator's output schema, to a column that from maps to a column of in,
// and resolves in in to that very column. e then reads the same values
// below the operator as above it, so it may move there. from returns -1 for
// an output column that does not come from in. A name that is ambiguous or
// unknown in out keeps e where it is, so it fails as it would unoptimized.
func readsSame(e ra.Expr, out, in relation.Schema, from func(int) int) bool {
	return eachAttr(e, func(name string) bool {
		i, err := out.Resolve(name)
		if err != nil {
			return false
		}
		c := from(i)
		j, err := in.Resolve(name)
		return c >= 0 && err == nil && j == c
	})
}

// eachAttr calls fn on every attribute name in e, and reports whether fn
// held for all of them.
func eachAttr(e ra.Expr, fn func(string) bool) bool {
	switch x := e.(type) {
	case *ra.AttrRef:
		return fn(x.Name)
	case *ra.Cmp:
		return eachAttr(x.L, fn) && eachAttr(x.R, fn)
	case *ra.Arith:
		return eachAttr(x.L, fn) && eachAttr(x.R, fn)
	case *ra.Not:
		return eachAttr(x.Kid, fn)
	case *ra.And:
		for _, k := range x.Kids {
			if !eachAttr(k, fn) {
				return false
			}
		}
	case *ra.Or:
		for _, k := range x.Kids {
			if !eachAttr(k, fn) {
				return false
			}
		}
	}
	return true
}

// joinSides returns, for a join over inputs with schemas l and r, its output
// schema and the maps from an output column to the left and to the right
// input's column (-1 for a column of the other side). A natural join's
// shared columns are the left's.
func joinSides(x *ra.Join, l, r relation.Schema) (out relation.Schema, fromL, fromR func(int) int) {
	n := l.Arity()
	fromL = func(i int) int {
		if i < n {
			return i
		}
		return -1
	}
	if x.Cond != nil {
		return l.Concat(r), fromL, func(i int) int { return i - n }
	}
	_, rOnly := ra.NaturalJoinCols(l, r)
	out = relation.Schema{Attrs: append([]relation.Attribute(nil), l.Attrs...)}
	for _, j := range rOnly {
		out.Attrs = append(out.Attrs, r.Attrs[j])
	}
	return out, fromL, func(i int) int {
		if i < n {
			return -1
		}
		return rOnly[i-n]
	}
}

// pushSelect pushes selection conjuncts into the operator tree as far as
// they go; conjuncts that cannot be pushed stay in a Select above `in`. A
// conjunct moves below an operator only where it reads the same columns
// there (readsSame).
func pushSelect(preds []ra.Expr, in ra.Node, cat ra.Catalog) ra.Node {
	if len(preds) == 0 {
		return in
	}
	switch x := in.(type) {
	case *ra.Select:
		// Merge and retry below.
		return pushSelect(append(preds, ra.Conjuncts(x.Pred)...), x.In, cat)
	case *ra.Project:
		childSchema, err := ra.OutSchema(x.In, cat)
		if err != nil {
			break
		}
		idxs, out, err := projectPlan(x, childSchema)
		if err != nil {
			break
		}
		pushable, blocked := splitPreds(preds, func(p ra.Expr) bool {
			return readsSame(p, out, childSchema, func(i int) int { return idxs[i] })
		})
		if len(pushable) > 0 {
			return selectAbove(blocked, &ra.Project{Cols: x.Cols, In: pushSelect(pushable, x.In, cat)})
		}
	case *ra.Rename:
		childSchema, err := ra.OutSchema(x.In, cat)
		if err != nil {
			break
		}
		out := childSchema.Qualify(x.As)
		pushable, blocked := splitPreds(preds, func(p ra.Expr) bool {
			return readsSame(p, out, childSchema, func(i int) int { return i })
		})
		if len(pushable) > 0 {
			return selectAbove(blocked, &ra.Rename{As: x.As, In: pushSelect(pushable, x.In, cat)})
		}
	case *ra.Join:
		lSchema, errL := ra.OutSchema(x.L, cat)
		rSchema, errR := ra.OutSchema(x.R, cat)
		if errL != nil || errR != nil {
			break
		}
		out, fromL, fromR := joinSides(x, lSchema, rSchema)
		var toL, toR, toCond, blocked []ra.Expr
		for _, p := range preds {
			switch {
			case readsSame(p, out, lSchema, fromL):
				toL = append(toL, p)
			case readsSame(p, out, rSchema, fromR):
				toR = append(toR, p)
			case x.Cond != nil && readsSame(p, out, out, func(i int) int { return i }):
				// Spans both sides of a theta join: attach it to the join
				// condition, which reads the concatenated schema. Turning
				// a natural join into a theta join would change the
				// schema, so there the predicate stays above.
				toCond = append(toCond, p)
			default:
				blocked = append(blocked, p)
			}
		}
		nl := x.L
		if len(toL) > 0 {
			nl = pushSelect(toL, x.L, cat)
		}
		nr := x.R
		if len(toR) > 0 {
			nr = pushSelect(toR, x.R, cat)
		}
		cond := x.Cond
		if len(toCond) > 0 {
			cond = andOf(append([]ra.Expr{x.Cond}, toCond...))
		}
		return selectAbove(blocked, &ra.Join{L: nl, R: nr, Cond: cond})
	}
	return &ra.Select{Pred: andOf(preds), In: in}
}

// splitPreds splits preds into those ok accepts and the rest.
func splitPreds(preds []ra.Expr, ok func(ra.Expr) bool) (yes, no []ra.Expr) {
	for _, p := range preds {
		if ok(p) {
			yes = append(yes, p)
		} else {
			no = append(no, p)
		}
	}
	return yes, no
}

// selectAbove puts the predicates, if any, in a Select over n.
func selectAbove(preds []ra.Expr, n ra.Node) ra.Node {
	if len(preds) == 0 {
		return n
	}
	return &ra.Select{Pred: andOf(preds), In: n}
}

// distributeJoinCond pushes one-sided conjuncts of a theta-join condition
// into the corresponding side, under pushSelect's rule. A conjunct that
// names no attribute reads the same on both sides and stays.
func distributeJoinCond(j *ra.Join, cat ra.Catalog) ra.Node {
	lSchema, errL := ra.OutSchema(j.L, cat)
	rSchema, errR := ra.OutSchema(j.R, cat)
	if errL != nil || errR != nil {
		return j
	}
	out, fromL, fromR := joinSides(j, lSchema, rSchema)
	var toL, toR, keep []ra.Expr
	for _, p := range ra.Conjuncts(j.Cond) {
		inL := readsSame(p, out, lSchema, fromL)
		inR := readsSame(p, out, rSchema, fromR)
		switch {
		case inL && !inR:
			toL = append(toL, p)
		case inR && !inL:
			toR = append(toR, p)
		default:
			keep = append(keep, p)
		}
	}
	if len(toL) == 0 && len(toR) == 0 {
		return j
	}
	nl, nr := j.L, j.R
	if len(toL) > 0 {
		nl = pushSelect(toL, j.L, cat)
	}
	if len(toR) > 0 {
		nr = pushSelect(toR, j.R, cat)
	}
	cond := andOf(keep)
	if cond == nil {
		// All conjuncts moved: keep a vacuous condition to preserve the
		// theta-join (concatenated) schema.
		cond = &ra.Cmp{Op: ra.EQ, L: &ra.Const{Val: relation.Int(1)}, R: &ra.Const{Val: relation.Int(1)}}
	}
	return &ra.Join{L: nl, R: nr, Cond: cond}
}

// EquiJoinPlan extracts hash-join key pairs from a theta-join condition
// under ra.EquiKeys' rule. It returns the key column indices and the
// residual predicate (nil if none).
func EquiJoinPlan(cond ra.Expr, lSchema, rSchema relation.Schema) (lKeys, rKeys []int, residual ra.Expr) {
	lKeys, rKeys, rest := ra.EquiKeys(cond, lSchema, rSchema)
	return lKeys, rKeys, andOf(rest)
}
