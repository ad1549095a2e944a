package ra

import (
	"repro/internal/relation"
)

// This file flattens a maximal conjunctive join region — a subtree built
// entirely of Join nodes — into hypergraph form for the cost-based planner:
// the region's leaf inputs, the equality constraints its natural- and
// theta-join conditions impose, and the mapping from the region's original
// output columns into the flattened column space. Anything the flattener
// cannot express as pure equi-join constraints (residual θ-predicates,
// cross products) makes it bail, and the planner keeps the original tree.

// JoinLeaf is one non-Join input of a flattened join region. Off is the
// global id of the leaf's first column: the region's global column space is
// the concatenation of all leaf schemas in left-to-right discovery order.
type JoinLeaf struct {
	Node   Node
	Schema relation.Schema
	Off    int
}

// JoinGraph is a join region in hypergraph form. Eqs holds every equality
// the original tree enforces, as pairs of global column ids; Out lists the
// global columns of the region's original output schema, in order (natural
// joins drop shared right-side columns, so Out is generally a strict subset
// of the global space).
type JoinGraph struct {
	Leaves []JoinLeaf
	Cols   []relation.Attribute
	Eqs    [][2]int
	Out    []int
}

// LeafOf returns the index of the leaf owning a global column.
func (g *JoinGraph) LeafOf(col int) int {
	for i := len(g.Leaves) - 1; i >= 0; i-- {
		if col >= g.Leaves[i].Off {
			return i
		}
	}
	return -1
}

// FlattenJoin flattens the maximal join region rooted at j. ok is false
// when the region is not a pure conjunctive equi-join component: a join
// condition with a conjunct EquiKeys leaves residual, or a cross product (a
// natural join with no shared attributes, or a theta join with no key pair
// — including the vacuous 1=1 condition the optimizer leaves after
// distributing every conjunct). The flattening takes its keys from
// EquiKeys and NaturalJoinCols, as the unplanned evaluator does, so the
// constraint set is identical to what it would enforce join-node by
// join-node.
func FlattenJoin(j *Join, cat Catalog) (*JoinGraph, bool) {
	g := &JoinGraph{}
	out, ok := g.flatten(j, cat)
	if !ok {
		return nil, false
	}
	g.Out = out
	return g, true
}

func (g *JoinGraph) flatten(n Node, cat Catalog) ([]int, bool) {
	j, isJoin := n.(*Join)
	if !isJoin {
		schema, err := OutSchema(n, cat)
		if err != nil {
			return nil, false
		}
		off := len(g.Cols)
		g.Cols = append(g.Cols, schema.Attrs...)
		g.Leaves = append(g.Leaves, JoinLeaf{Node: n, Schema: schema, Off: off})
		out := make([]int, schema.Arity())
		for i := range out {
			out[i] = off + i
		}
		return out, true
	}
	lOut, ok := g.flatten(j.L, cat)
	if !ok {
		return nil, false
	}
	rOut, ok := g.flatten(j.R, cat)
	if !ok {
		return nil, false
	}
	lSchema := g.schemaAt(lOut)
	rSchema := g.schemaAt(rOut)
	if j.Cond == nil {
		shared, rOnly := NaturalJoinCols(lSchema, rSchema)
		if len(shared) == 0 {
			return nil, false // cross product
		}
		for _, p := range shared {
			g.Eqs = append(g.Eqs, [2]int{lOut[p[0]], rOut[p[1]]})
		}
		out := append([]int(nil), lOut...)
		for _, ri := range rOnly {
			out = append(out, rOut[ri])
		}
		return out, true
	}
	lKeys, rKeys, residual := EquiKeys(j.Cond, lSchema, rSchema)
	if len(residual) > 0 || len(lKeys) == 0 {
		// A residual θ-predicate, or a cross product (e.g. the vacuous 1=1
		// condition).
		return nil, false
	}
	for i, li := range lKeys {
		g.Eqs = append(g.Eqs, [2]int{lOut[li], rOut[rKeys[i]]})
	}
	return append(append([]int(nil), lOut...), rOut...), true
}

// schemaAt materializes the schema of a subregion output given its global
// column ids.
func (g *JoinGraph) schemaAt(cols []int) relation.Schema {
	attrs := make([]relation.Attribute, len(cols))
	for i, c := range cols {
		attrs[i] = g.Cols[c]
	}
	return relation.Schema{Attrs: attrs}
}

// EquiKeys splits a θ-join condition over the input schemas l and r into
// hash-key pairs and residual conjuncts. It is the one rule that decides
// join keys, for the evaluator's joins (engine.EquiJoinPlan) and for the
// planner's join regions (FlattenJoin). A conjunct x = y is a key exactly
// when x and y are attribute references that resolve, in the concatenated
// schema l ++ r against which CompileExpr compiles the residual, to columns
// on opposite sides: the key then compares the very columns the residual
// would. lKeys[i] and rKeys[i] are positions in l and in r. Every other
// conjunct is residual, an equality whose name is ambiguous or unknown in
// l ++ r included, so it fails to compile as it would unoptimized.
func EquiKeys(cond Expr, l, r relation.Schema) (lKeys, rKeys []int, residual []Expr) {
	lr := l.Concat(r)
	n := l.Arity()
	for _, p := range Conjuncts(cond) {
		if c, ok := p.(*Cmp); ok && c.Op == EQ {
			x, xok := c.L.(*AttrRef)
			y, yok := c.R.(*AttrRef)
			if xok && yok {
				i, errX := lr.Resolve(x.Name)
				j, errY := lr.Resolve(y.Name)
				if errX == nil && errY == nil && (i < n) != (j < n) {
					if i > j {
						i, j = j, i
					}
					lKeys = append(lKeys, i)
					rKeys = append(rKeys, j-n)
					continue
				}
			}
		}
		residual = append(residual, p)
	}
	return lKeys, rKeys, residual
}

// Conjuncts flattens a predicate into its top-level conjuncts.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, k := range a.Kids {
			out = append(out, Conjuncts(k)...)
		}
		return out
	}
	return []Expr{e}
}
