package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
)

// fkClose extends a set of tuple ids with foreign-key parents, transitively,
// choosing the first parent when several share a key (Section 4.3 closure
// for the combinatorial algorithms; the solver-based algorithms encode the
// choice instead).
func fkClose(ids []int, db *relation.Database, fks []relation.ForeignKey) ([]int, error) {
	if len(fks) == 0 {
		// Sorted like the closure path below: callers fingerprint the
		// result (idsKey) and feed it to dedup maps, so passing map-order
		// input through unsorted made equal id sets look distinct.
		out := append([]int(nil), ids...)
		sort.Ints(out)
		return out, nil
	}
	parentMaps := make([]map[relation.TupleID][]relation.TupleID, len(fks))
	for i, fk := range fks {
		m, err := fk.ParentsOf(db)
		if err != nil {
			return nil, err
		}
		parentMaps[i] = m
	}
	in := map[int]bool{}
	queue := append([]int(nil), ids...)
	var out []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if in[id] {
			continue
		}
		in[id] = true
		out = append(out, id)
		for _, m := range parentMaps {
			if ps, ok := m[relation.TupleID(id)]; ok && len(ps) > 0 {
				queue = append(queue, int(ps[0]))
			}
		}
	}
	sort.Ints(out)
	return out, nil
}

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

	t0 := time.Now()
	differs, d12, d21, err := p.disagrees(p.DB)
	if err != nil {
		return nil, nil, err
	}
	stats.RawEvalTime = time.Since(t0)
	if !differs {
		return nil, nil, ErrQueriesAgree
	}
	qa := p.Q1
	diff := d12
	if diff.Len() == 0 {
		qa = p.Q2
		diff = d21
	}
	t := diff.Tuples[0]

	t0 = time.Now()
	pushed := PushDownTupleSelection(qa, t, p.DB)
	ann, err := engine.EvalProvOpts(pushed, p.DB, p.Params, p.engineOpts())
	if err != nil {
		return nil, nil, err
	}
	i := ann.Lookup(t)
	if i < 0 {
		return nil, nil, fmt.Errorf("core: tuple %v missing after pushdown", t)
	}
	prov := ann.Anns[i]
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
	ids, err := fkClose([]int(smallest), p.DB, p.ForeignKeys())
	if err != nil {
		return nil, nil, err
	}
	stats.SolverTime = time.Since(t0)

	sub, tids := subinstanceFromIDs(p.DB, ids)
	ce := &Counterexample{DB: sub, IDs: tids, Witness: t}
	stats.WitnessSize = ce.Size()
	stats.Optimal = true
	stats.TotalTime = time.Since(start)
	if err := Verify(p, ce); err != nil {
		// A budget expiry during the final verification is a budget
		// failure, not an algorithm bug.
		if errors.Is(err, ErrBudget) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: MonotoneSWP produced an invalid counterexample: %v", err)
	}
	return ce, stats, nil
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

	t0 := time.Now()
	differs, d12, d21, err := p.disagrees(p.DB)
	if err != nil {
		return nil, nil, err
	}
	stats.RawEvalTime = time.Since(t0)
	if !differs {
		return nil, nil, ErrQueriesAgree
	}
	if err := p.interrupted(); err != nil {
		return nil, nil, err
	}
	qa, qb := p.Q1, p.Q2
	diff := d12
	if diff.Len() == 0 {
		qa, qb = p.Q2, p.Q1
		diff = d21
	}
	t := diff.Tuples[0]
	whole := &ra.Diff{L: qa, R: qb}
	terms := ra.SPJUTerms(whole)

	// For every SPJU term containing t, collect its minimal witnesses.
	t0 = time.Now()
	var witnessSets [][][]int
	cat := engine.Catalog{DB: p.DB}
	for _, q := range terms {
		if err := p.interrupted(); err != nil {
			return nil, nil, err
		}
		// Union-compatibility: compare positionally via key.
		schema, err := ra.OutSchema(q, cat)
		if err != nil || schema.Arity() != len(t) {
			continue // monotone term never contains t on subinstances
		}
		pushed := PushDownTupleSelection(q, t, p.DB)
		// Counting-semiring cardinality pre-check: t ∈ q(D) iff the pushed
		// selection has nonempty support. The count pass costs a fraction
		// of the provenance pass it skips (no annotation expressions), so
		// it pays off whenever some terms don't produce t — the common
		// case, since t originates from specific SPJU terms.
		n, err := engine.CountDistinctOpts(pushed, p.DB, p.Params, p.engineOpts())
		if err != nil {
			return nil, nil, err
		}
		if n == 0 {
			continue
		}
		ann, err := engine.EvalProvOpts(pushed, p.DB, p.Params, p.engineOpts())
		if err != nil {
			return nil, nil, err
		}
		i := ann.Lookup(t)
		if i < 0 {
			continue
		}
		dnf, err := boolexpr.MonotoneDNF(ann.Anns[i], maxCombos)
		if err != nil {
			return nil, nil, err
		}
		set := make([][]int, 0, len(dnf)+1)
		set = append(set, nil) // the empty choice: drop this term's witness
		for _, m := range dnf {
			set = append(set, []int(m))
		}
		witnessSets = append(witnessSets, set)
	}
	stats.ProvEvalTime = time.Since(t0)

	nCombos := 1
	for _, s := range witnessSets {
		nCombos *= len(s)
		if nCombos > maxCombos {
			return nil, nil, fmt.Errorf("core: SPJUD* enumeration exceeds %d combinations", maxCombos)
		}
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
			ids, err = fkClose(ids, p.DB, p.ForeignKeys())
			if err != nil {
				return nil, nil, err
			}
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
	stats.Optimal = true
	return best, stats, nil
}
