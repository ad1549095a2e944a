package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/ra"
)

// MonotoneSWP solves SWP for monotone (SPJU) queries in polynomial data
// complexity via the DNF algorithm of Theorem 6: compute the
// how-provenance of a differing tuple t with respect to the side that
// produces it, convert to DNF with absorption, and take the smallest
// minterm. Theorems 1 (SJ), 2 (SPU) and 5 (JU*) are special cases: for
// those classes the DNF is linear in the provenance size.
//
// Monotonicity of the other query guarantees t stays absent from it on
// every subinstance, so the minterm alone is a witness.
func MonotoneSWP(p Problem, maxTerms int) (*Counterexample, *Stats, error) {
	if maxTerms <= 0 {
		maxTerms = 1 << 16
	}
	c1, c2 := ra.Classify(p.Q1), ra.Classify(p.Q2)
	if !c1.Monotone() || !c2.Monotone() {
		return nil, nil, fmt.Errorf("core: MonotoneSWP requires monotone queries (got %s, %s)", c1, c2)
	}
	stats := &Stats{Algorithm: "MonotoneDNF"}
	start := time.Now()
	qa, _, t, err := p.baseWitness(stats)
	if err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	prov, err := p.witnessProv(qa, t)
	if err != nil {
		return nil, nil, err
	}
	stats.ProvEvalTime = time.Since(t0)

	t0 = time.Now()
	dnf, err := boolexpr.MonotoneDNF(prov, maxTerms)
	if err != nil {
		return nil, nil, err
	}
	smallest := dnf.Smallest()
	if smallest == nil {
		return nil, nil, fmt.Errorf("core: empty DNF (tuple has no witness)")
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	ids, _ := fkClose(smallest, fk)
	stats.SolverTime = time.Since(t0)
	// The smallest minterm is a smallest witness; once the closure adds
	// parents, a larger minterm that needs none may be smaller overall.
	stats.Optimal = len(ids) == len(smallest)
	return p.finish(stats, start, ids, t)
}

// SPJUDStarSWP implements the Theorem 7 enumeration for SPJUD* queries
// (differences only above SPJU terms): enumerate, for each SPJU term q_i
// with t ∈ q_i(D), its minimal witnesses (plus the empty choice), take
// unions, and keep the smallest union on which the queries disagree.
// maxCombos bounds the enumeration; exceeding it returns an error (the
// procedure is polynomial in data complexity but exponential in the number
// of difference operators).
func SPJUDStarSWP(p Problem, maxCombos int) (*Counterexample, *Stats, error) {
	if maxCombos <= 0 {
		maxCombos = 1 << 14
	}
	if !ra.IsSPJUDStar(p.Q1) || !ra.IsSPJUDStar(p.Q2) {
		return nil, nil, fmt.Errorf("core: SPJUDStarSWP requires SPJUD* queries")
	}
	stats := &Stats{Algorithm: "SPJUDStar"}
	start := time.Now()
	qa, qb, t, err := p.baseWitness(stats)
	if err != nil {
		return nil, nil, err
	}

	// For every SPJU term containing t, collect its minimal witnesses plus
	// the empty choice (drop this term's witness).
	t0 := time.Now()
	var witnessSets []boolexpr.DNF
	for _, q := range ra.SPJUTerms(&ra.Diff{L: qa, R: qb}) {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		dnf, err := p.termWitnesses(q, t, maxCombos)
		if err != nil {
			return nil, nil, err
		}
		if len(dnf) > 0 {
			witnessSets = append(witnessSets, append(boolexpr.DNF{nil}, dnf...))
		}
	}
	stats.ProvEvalTime = time.Since(t0)

	nCombos := 1
	for _, s := range witnessSets {
		nCombos *= len(s)
		if nCombos > maxCombos {
			return nil, nil, fmt.Errorf("core: SPJUD* enumeration exceeds %d combinations", maxCombos)
		}
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}

	t0 = time.Now()
	// Enumerate every combination's (FK-closed) id union first, then check
	// them all with the batched accept-reject layer: one bitvector engine
	// pass per chunk of candidates instead of a fresh subinstance
	// evaluation per combination. Only candidates that both disagree and
	// improve on the current best are materialized as databases.
	var combos [][]int
	seen := map[string]bool{}
	var scratch []byte
	// forced stays true while every closure adds only sole parents. Every
	// constraint-valid witness contains a union of picks on which t still
	// differs, and then also that union's closure, so the smallest
	// disagreeing closed union is provably smallest (Theorem 7).
	forced := true
	pick := make([]int, len(witnessSets))
	for {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		// Build the union of the current picks.
		idSet := map[int]bool{}
		for i, s := range witnessSets {
			for _, id := range s[pick[i]] {
				idSet[id] = true
			}
		}
		if len(idSet) > 0 {
			ids := make([]int, 0, len(idSet))
			for id := range idSet {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			ids, chose := fkClose(ids, fk)
			forced = forced && !chose
			// Distinct picks often close over the same id union; check each
			// union once (first occurrence keeps the tie-break order).
			scratch = idsKey(ids, scratch[:0])
			if !seen[string(scratch)] {
				seen[string(scratch)] = true
				combos = append(combos, ids)
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < len(pick); i++ {
			pick[i]++
			if pick[i] < len(witnessSets[i]) {
				break
			}
			pick[i] = 0
		}
		if i == len(pick) {
			break
		}
	}
	disagree, err := DisagreeBatch(p, combos)
	if err != nil {
		return nil, nil, err
	}
	// Smallest-first, ties in enumeration order — the same candidate the
	// incremental best-tracking loop used to settle on (fkClose returns
	// deduplicated ids, so len(ids) is the subinstance size).
	order := make([]int, len(combos))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(combos[order[a]]) < len(combos[order[b]]) })
	var best *Counterexample
	for _, i := range order {
		if !disagree[i] {
			continue
		}
		sub, tids := subinstanceFromIDs(p.DB, combos[i])
		cand := &Counterexample{DB: sub, IDs: tids, Witness: t}
		if Verify(p, cand) == nil {
			best = cand
			break
		}
	}
	stats.SolverTime = time.Since(t0)
	stats.TotalTime = time.Since(start)
	if best == nil {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: SPJUD* enumeration found no witness")
	}
	stats.WitnessSize = best.Size()
	stats.Optimal = forced
	return best, stats, nil
}
