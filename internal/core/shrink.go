package core

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// This file is ShrinkGreedy, the solver-free counterexample minimizer: it
// holds an engine.PreparedDiff over D and answers each deletion attempt with
// one O(|Δ|) ApplyDelta instead of a full re-evaluation, committing the
// accepted deletions.

// fkGuard tracks foreign-key obligations during greedy deletion: a parent
// tuple may only be deleted while no live child still depends on it as its
// last live parent (FKs are the one constraint class not closed under
// subinstances, Section 2.1/4.3). Parent counts are tracked per (FK, child)
// pair: a child constrained by two foreign keys needs a live parent under
// *each* of them, so pooling the counts across FKs would let the last
// parent under one FK slip away while the other FK still has spares.
type fkGuard struct {
	// parentChildren maps a parent tuple to the (fk, child) edges that
	// depend on it.
	parentChildren map[relation.TupleID][]fkEdge
	// liveParents counts, per FK, each child's remaining live parents.
	liveParents []map[relation.TupleID]int
	removed     map[relation.TupleID]bool
}

type fkEdge struct {
	fk    int
	child relation.TupleID
}

func newFKGuard(fk fkIndex) *fkGuard {
	g := &fkGuard{
		parentChildren: map[relation.TupleID][]fkEdge{},
		liveParents:    make([]map[relation.TupleID]int, len(fk)),
		removed:        map[relation.TupleID]bool{},
	}
	for i, m := range fk {
		g.liveParents[i] = make(map[relation.TupleID]int, len(m))
		for child, parents := range m {
			g.liveParents[i][child] = len(parents)
			for _, p := range parents {
				g.parentChildren[p] = append(g.parentChildren[p], fkEdge{fk: i, child: child})
			}
		}
	}
	return g
}

// removable reports whether deleting id keeps every live child supported
// under every foreign key.
func (g *fkGuard) removable(id relation.TupleID) bool {
	for _, e := range g.parentChildren[id] {
		if !g.removed[e.child] && g.liveParents[e.fk][e.child] <= 1 {
			return false
		}
	}
	return true
}

// remove records the deletion of id.
func (g *fkGuard) remove(id relation.TupleID) {
	g.removed[id] = true
	for _, e := range g.parentChildren[id] {
		g.liveParents[e.fk][e.child]--
	}
}

// shrinkFallbackLimit bounds the instance size the per-candidate fallback
// shrink loop accepts: without retained state every deletion attempt costs a
// full subinstance evaluation, which is only tolerable on small instances.
const shrinkFallbackLimit = 4096

// ShrinkGreedy computes a counterexample by greedy deletion: starting from
// the full instance D (on which the queries must disagree), it repeatedly
// deletes any tuple whose removal preserves both the disagreement and the
// foreign-key constraints, iterating to a fixpoint. The result is
// 1-minimal — no single remaining tuple can be deleted — though not
// necessarily the globally smallest witness; unlike the solver-based
// algorithms it needs no provenance, CNF or SAT budget.
//
// Each deletion attempt is answered by the prepared delta state in time
// proportional to the single-tuple delta; accepted deletions are committed,
// so one full pass over D costs O(|D|) delta propagations instead of the
// O(|D|) full re-evaluations the naive loop pays. Plans the engine cannot
// prepare fall back to that naive loop (bounded to small instances).
func ShrinkGreedy(p Problem) (*Counterexample, *Stats, error) {
	stats := &Stats{Algorithm: "ShrinkGreedy"}
	start := time.Now()
	if err := p.interrupted(); err != nil {
		return nil, nil, err
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	guard := newFKGuard(fk)
	t0 := time.Now()
	prep, perr := engine.PrepareDiff(p.Q1, p.Q2, p.DB, p.Params, p.engineOpts())
	stats.RawEvalTime = time.Since(t0)
	var kept []relation.TupleID
	var witness relation.Tuple
	if perr == nil {
		if !prep.Disagrees() {
			return nil, nil, ErrQueriesAgree
		}
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		for {
			progress := false
			for _, id := range prep.LiveIDs() {
				if err := p.interrupted(); err != nil {
					return nil, nil, err
				}
				if !guard.removable(id) {
					continue
				}
				res, err := prep.ApplyDelta([]relation.TupleID{id}, nil)
				if err != nil {
					// Delta-time evaluation errors are candidate-specific
					// (e.g. a predicate failing on a resurrected tuple):
					// treat the tuple as non-removable instead of abandoning
					// the whole minimization.
					continue
				}
				if !res.Disagrees() {
					continue
				}
				if err := res.Commit(); err != nil {
					return nil, nil, err
				}
				guard.remove(id)
				progress = true
			}
			if !progress {
				break
			}
		}
		kept = prep.LiveIDs()
		d12, d21 := prep.Diffs()
		witness = firstWitness(d12, d21)
	} else {
		kept, witness, err = shrinkGreedyFallback(p, guard)
		if err != nil {
			return nil, nil, err
		}
	}
	ids := make([]int, len(kept))
	for i, id := range kept {
		ids[i] = int(id)
	}
	return p.finish(stats, start, ids, witness)
}

// shrinkGreedyFallback is the no-retained-state loop: every deletion attempt
// materializes the candidate subinstance and re-evaluates both queries.
func shrinkGreedyFallback(p Problem, guard *fkGuard) ([]relation.TupleID, relation.Tuple, error) {
	if p.DB.Size() > shrinkFallbackLimit {
		return nil, nil, fmt.Errorf("core: plan is not delta-incrementalizable and |D|=%d exceeds the fallback shrink limit %d",
			p.DB.Size(), shrinkFallbackLimit)
	}
	live := map[relation.TupleID]bool{}
	for _, id := range p.DB.AllIDs() {
		live[id] = true
	}
	_, _, witness, err := p.baseWitness(nil)
	if err != nil {
		return nil, nil, err
	}
	for {
		progress := false
		for _, id := range p.DB.AllIDs() {
			if err := p.interrupted(); err != nil {
				return nil, nil, err
			}
			if !live[id] || !guard.removable(id) {
				continue
			}
			live[id] = false
			sub := p.DB.Subinstance(live)
			differs, nd12, nd21, err := p.disagrees(sub)
			if err != nil || !differs {
				live[id] = true
				continue
			}
			guard.remove(id)
			progress = true
			witness = firstWitness(nd12, nd21)
		}
		if !progress {
			break
		}
	}
	var kept []relation.TupleID
	for _, id := range p.DB.AllIDs() {
		if live[id] {
			kept = append(kept, id)
		}
	}
	return kept, witness, nil
}
