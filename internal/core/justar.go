package core

import (
	"fmt"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/ra"
)

// unionLeaves splits a query at its top-level unions (descending through
// renames), returning the union-free subqueries whose union the query
// denotes.
func unionLeaves(q ra.Node) []ra.Node {
	switch x := q.(type) {
	case *ra.Union:
		return append(unionLeaves(x.L), unionLeaves(x.R)...)
	case *ra.Rename:
		inner := unionLeaves(x.In)
		if len(inner) == 1 {
			return []ra.Node{q}
		}
		out := make([]ra.Node, len(inner))
		for i, n := range inner {
			out[i] = &ra.Rename{As: x.As, In: n}
		}
		return out
	default:
		return []ra.Node{q}
	}
}

// JUStarSWP implements the Theorem 5 algorithm for JU* queries (all unions
// above all joins): a differing tuple t must be produced by one of the
// union's join-only subqueries, so the smallest witness is the minimum over
// those subqueries of the smallest SJ-style witness (Theorem 1). This
// avoids constructing a DNF for the whole query.
func JUStarSWP(p Problem) (*Counterexample, *Stats, error) {
	if !ra.IsJUStar(p.Q1) || !ra.IsJUStar(p.Q2) {
		return nil, nil, fmt.Errorf("core: JUStarSWP requires JU* queries")
	}
	c1, c2 := ra.Classify(p.Q1), ra.Classify(p.Q2)
	if !c1.Monotone() || !c2.Monotone() {
		return nil, nil, fmt.Errorf("core: JUStarSWP requires monotone queries")
	}
	stats := &Stats{Algorithm: "JUStar"}
	start := time.Now()
	qa, _, t, err := p.baseWitness(stats)
	if err != nil {
		return nil, nil, err
	}

	// Try every union leaf containing t and keep the smallest witness.
	t0 := time.Now()
	var best boolexpr.Minterm
	for _, leaf := range unionLeaves(qa) {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		dnf, err := p.termWitnesses(leaf, t, 1<<16)
		if err != nil {
			return nil, nil, err
		}
		if m := dnf.Smallest(); m != nil && (best == nil || len(m) < len(best)) {
			best = m
		}
	}
	stats.ProvEvalTime = time.Since(t0)
	if best == nil {
		return nil, nil, fmt.Errorf("core: no union leaf produces the differing tuple")
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	ids, _ := fkClose(best, fk)
	// As in MonotoneSWP: proven smallest unless the closure added parents.
	stats.Optimal = len(ids) == len(best)
	return p.finish(stats, start, ids, t)
}
