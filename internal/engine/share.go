package engine

import (
	"encoding/binary"
	"math"

	"repro/internal/faults"
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file turns the roots of one evaluation into one plan DAG. Every
// entry point (RunOpts, EvalPair, EvalBatchDiffs, PrepareDiff) prepares its
// roots through prepare: each root is optimized and planned on its own, and
// then all of them are hash-consed together, so structurally equal subtrees
// — a subquery a query repeats, a base relation it scans twice, everything
// a wrong query shares with its reference — become one node. One exec then
// evaluates every root, and its memo computes each shared node once, under
// every semiring: a witness search encodes why-provenance to CNF by
// structure (boolexpr.CNFBuilder.Assert), so sharing annotations does not
// change its formula.
//
// The structural key of a node is its operator tag, an injective encoding of
// its payload (names and lists length-prefixed, constants tagged by kind),
// and the ids of its already-interned children. It never renders a subtree:
// String() re-renders every subtree at every level, and it prints Int(1) and
// Float(1) alike, though integer and float arithmetic differ.

// prepare optimizes and plans each root, then hash-conses all the planned
// trees together. allowSemi gates the planner's Yannakakis pass, as in
// planWith. The returned roots are in the input order; equal roots come
// back as one node.
func prepare(roots []ra.Node, db *relation.Database, opts Options, allowSemi bool) ([]ra.Node, error) {
	out := make([]ra.Node, len(roots))
	for i, q := range roots {
		if !opts.NoOptimize {
			q = Optimize(q, Catalog{DB: db})
		}
		if !opts.NoPlan {
			var err error
			if q, err = planWith(q, db, opts, allowSemi); err != nil {
				return nil, err
			}
		}
		out[i] = q
	}
	in := newInterner(opts.Observer)
	for i, q := range out {
		out[i] = in.intern(q)
	}
	return out, nil
}

// run evaluates prepared roots in this exec; a node several roots (or
// parents) share is evaluated once.
func (e *exec[T]) run(roots ...ra.Node) ([]*Rel[T], error) {
	for _, q := range roots {
		e.markShared(q)
	}
	out := make([]*Rel[T], len(roots))
	for i, q := range roots {
		r, err := e.node(q)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// runRoots prepares the roots and evaluates them in one exec.
func runRoots[T any](s Semiring[T], roots []ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) ([]*Rel[T], error) {
	roots, err := prepare(roots, db, opts, true)
	if err != nil {
		return nil, err
	}
	return newExec(s, db, params, opts).run(roots...)
}

// EvalPair evaluates q1 and q2 on db under set semantics in one exec: the
// subtrees the two planned queries share are evaluated once. The results
// are what EvalOpts returns for each query.
func EvalPair(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*relation.Relation, *relation.Relation, error) {
	faults.Inject(faults.EngineEval)
	rs, err := runRoots[bool](Set, []ra.Node{q1, q2}, db, params, opts)
	if err != nil {
		return nil, nil, err
	}
	return rs[0].Relation(opName(q1)), rs[1].Relation(opName(q2)), nil
}

// interner hash-conses planned trees: the first node met with a given
// structural key becomes the key's canonical node, and every later equal
// subtree is replaced by it. A canonical node keeps its pointer when its
// children were already canonical (PlanReport finds joins by pointer);
// otherwise it is rebuilt over the canonical children.
type interner struct {
	ids    map[ra.Node]uint64  // canonical node → id
	byKey  map[string]ra.Node  // structural key → canonical node
	seen   map[ra.Node]ra.Node // input node → its canonical node
	report *PlanReport
	buf    []byte
}

func newInterner(report *PlanReport) *interner {
	return &interner{ids: map[ra.Node]uint64{}, byKey: map[string]ra.Node{},
		seen: map[ra.Node]ra.Node{}, report: report}
}

// intern returns the canonical node of n's structure. Input DAGs (the
// Yannakakis reducer shares nodes by pointer) are walked once per node.
func (in *interner) intern(n ra.Node) ra.Node {
	if c, ok := in.seen[n]; ok {
		return c
	}
	kids := n.Children()
	canon := make([]ra.Node, len(kids))
	changed := false
	for i, k := range kids {
		canon[i] = in.intern(k)
		changed = changed || canon[i] != k
	}
	c := n
	if changed {
		c = withChildren(n, canon)
	}
	// An operator without a structural encoding is never merged.
	if key, ok := in.key(n, canon); ok {
		if prev, found := in.byKey[key]; found {
			c = prev
		} else {
			in.byKey[key] = c
		}
	}
	if _, ok := in.ids[c]; !ok {
		in.ids[c] = uint64(len(in.ids))
	}
	if c != n {
		in.report.alias(n, c)
	}
	in.seen[n] = c
	return c
}

// withChildren copies an operator over new children.
func withChildren(n ra.Node, kids []ra.Node) ra.Node {
	switch x := n.(type) {
	case *ra.Select:
		return &ra.Select{Pred: x.Pred, In: kids[0]}
	case *ra.Project:
		return &ra.Project{Cols: x.Cols, In: kids[0]}
	case *ra.Join:
		return &ra.Join{L: kids[0], R: kids[1], Cond: x.Cond}
	case *ra.Union:
		return &ra.Union{L: kids[0], R: kids[1]}
	case *ra.Diff:
		return &ra.Diff{L: kids[0], R: kids[1]}
	case *ra.Rename:
		return &ra.Rename{As: x.As, In: kids[0]}
	case *ra.GroupBy:
		return &ra.GroupBy{GroupCols: x.GroupCols, Aggs: x.Aggs, In: kids[0]}
	case *ra.EquiJoin:
		return &ra.EquiJoin{L: kids[0], R: kids[1], LKeys: x.LKeys, RKeys: x.RKeys}
	case *ra.Semi:
		return &ra.Semi{L: kids[0], R: kids[1], LKeys: x.LKeys, RKeys: x.RKeys}
	case *ra.Permute:
		return &ra.Permute{In: kids[0], Idxs: x.Idxs}
	}
	return n // an operator without a structural encoding keeps its children
}

// key encodes n's operator, payload and canonical children; ok is false
// for an operator or expression it has no encoding for.
func (in *interner) key(n ra.Node, kids []ra.Node) (string, bool) {
	b := in.buf[:0]
	ok := true
	switch x := n.(type) {
	case *ra.Rel:
		b = appendString(append(b, 'R'), x.Name)
	case *ra.Select:
		b, ok = appendExpr(append(b, 'S'), x.Pred)
	case *ra.Project:
		b = appendStrings(append(b, 'P'), x.Cols)
	case *ra.Join:
		b, ok = appendExpr(append(b, 'J'), x.Cond)
	case *ra.Union:
		b = append(b, 'U')
	case *ra.Diff:
		b = append(b, 'D')
	case *ra.Rename:
		b = appendString(append(b, 'N'), x.As)
	case *ra.GroupBy:
		b = appendStrings(append(b, 'G'), x.GroupCols)
		b = binary.AppendUvarint(b, uint64(len(x.Aggs)))
		for _, a := range x.Aggs {
			b = appendString(appendString(append(b, byte(a.Func)), a.Attr), a.As)
		}
	case *ra.EquiJoin:
		b = appendInts(appendInts(append(b, 'E'), x.LKeys), x.RKeys)
	case *ra.Semi:
		b = appendInts(appendInts(append(b, 'H'), x.LKeys), x.RKeys)
	case *ra.Permute:
		b = appendInts(append(b, 'M'), x.Idxs)
	default:
		ok = false
	}
	for _, k := range kids {
		b = binary.AppendUvarint(b, in.ids[k])
	}
	in.buf = b
	return string(b), ok
}

// appendExpr encodes a scalar expression (nil included) prefix-free.
func appendExpr(b []byte, e ra.Expr) ([]byte, bool) {
	ok := true
	switch x := e.(type) {
	case nil:
		return append(b, '0'), true
	case *ra.AttrRef:
		return appendString(append(b, 'a'), x.Name), true
	case *ra.Param:
		return appendString(append(b, 'p'), x.Name), true
	case *ra.Const:
		return appendValue(append(b, 'c'), x.Val), true
	case *ra.Cmp:
		b = append(b, '=', byte(x.Op))
		if b, ok = appendExpr(b, x.L); ok {
			b, ok = appendExpr(b, x.R)
		}
	case *ra.Arith:
		b = append(b, '+', x.Op)
		if b, ok = appendExpr(b, x.L); ok {
			b, ok = appendExpr(b, x.R)
		}
	case *ra.Not:
		b, ok = appendExpr(append(b, '!'), x.Kid)
	case *ra.And:
		b, ok = appendExprs(append(b, '&'), x.Kids)
	case *ra.Or:
		b, ok = appendExprs(append(b, '|'), x.Kids)
	default:
		return b, false
	}
	return b, ok
}

func appendExprs(b []byte, es []ra.Expr) ([]byte, bool) {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		var ok bool
		if b, ok = appendExpr(b, e); !ok {
			return b, false
		}
	}
	return b, true
}

// appendValue encodes a constant with its kind, so Int(1), Float(1) and
// '1' differ.
func appendValue(b []byte, v relation.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case relation.KindBool:
		if v.AsBool() {
			return append(b, 1)
		}
		return append(b, 0)
	case relation.KindInt:
		return binary.AppendVarint(b, v.AsInt())
	case relation.KindFloat:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case relation.KindString:
		return appendString(b, v.AsString())
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}
