package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/minones"
	"repro/internal/ra"
	"repro/internal/relation"
)

// EnumerateSmallest finds up to max distinct smallest counterexamples for an
// SPJUD problem. Example 2 of the paper observes that the running example
// has several smallest counterexamples ({t1,t4,t5} plus three variants over
// Jesse's courses); this enumerates them all: it first determines the
// global optimum size k* across every differing tuple, then enumerates all
// witnesses of size k* with the SAT solver.
//
// Candidate acceptance is batched: the SAT models of every witness case are
// decoded and deduplicated first, then verified together through
// VerifyBatch — one bitvector-semiring engine pass per chunk of up to 256
// candidates instead of a fresh subinstance evaluation each. Witness cases
// whose CNF duplicates an earlier case's are skipped outright (identical
// formulas enumerate identical models, which the id-set dedup would discard
// anyway), saving both the solver enumeration and the redundant Verify work.
func EnumerateSmallest(p Problem, max int) ([]*Counterexample, error) {
	if max <= 0 {
		max = 64
	}
	d12, d21, err := p.baseDiff(nil)
	if err != nil {
		return nil, err
	}
	fk, err := newFKIndex(p.DB, p.ForeignKeys())
	if err != nil {
		return nil, err
	}

	type tupleCase struct {
		t      relation.Tuple
		cnf    [][]int
		nVars  int
		vars   []int
		varID  map[int]int
		optima int
	}
	var cases []tupleCase
	best := -1
	seenCase := map[string]bool{}
	for _, side := range []struct {
		q    ra.Node
		diff *relation.Relation
	}{{&ra.Diff{L: p.Q1, R: p.Q2}, d12}, {&ra.Diff{L: p.Q2, R: p.Q1}, d21}} {
		for _, t := range side.diff.Tuples {
			if err := p.interrupted(); err != nil {
				return nil, err
			}
			prov, err := p.pushedProv(side.q, t)
			if err != nil {
				return nil, err
			}
			if prov == nil {
				continue
			}
			b, counted, varToID := buildCNF(prov, fk)
			if key := cnfKey(b.Clauses, counted, varToID); seenCase[key] {
				continue
			} else {
				seenCase[key] = true
			}
			r := minones.Minimize(b.NumVars, b.Clauses, counted, p.solverOpts())
			if r.Status == minones.Infeasible || r.Status == minones.Unknown {
				// Infeasible: no witness exists. Unknown: no model in
				// budget — either way there is no model to enumerate from.
				continue
			}
			if best < 0 || r.Cost < best {
				best = r.Cost
			}
			cases = append(cases, tupleCase{
				t: t, cnf: b.Clauses, nVars: b.NumVars, vars: counted, varID: varToID, optima: r.Cost,
			})
		}
	}
	if best < 0 {
		// Distinguish "the budget cut every solve short" from a genuine
		// absence of witnesses, as the sibling algorithms do.
		if err := p.interrupted(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: no witnesses found")
	}

	// Collect every fresh candidate id-set across the optimal cases, then
	// verify them in one batch.
	type candidate struct {
		ids []int
		t   relation.Tuple
	}
	seen := map[string]bool{}
	var scratch []byte
	var pending []candidate
	for _, c := range cases {
		if c.optima != best {
			continue
		}
		if err := p.interrupted(); err != nil {
			return nil, err
		}
		models := minones.EnumerateAtCost(c.nVars, c.cnf, c.vars, best, max, p.solverOpts())
		for _, m := range models {
			ids := modelToIDs(m, c.vars, c.varID)
			sort.Ints(ids)
			scratch = idsKey(ids, scratch[:0])
			if seen[string(scratch)] {
				continue
			}
			seen[string(scratch)] = true
			pending = append(pending, candidate{ids: ids, t: c.t})
		}
	}
	idSets := make([][]int, len(pending))
	for i, c := range pending {
		idSets[i] = c.ids
	}
	ces, err := VerifyBatch(p, idSets)
	if err != nil {
		return nil, err
	}
	var out []*Counterexample
	for i, ce := range ces {
		if ce == nil {
			continue
		}
		ce.Witness = pending[i].t
		out = append(out, ce)
		if len(out) >= max {
			break
		}
	}
	if len(out) == 0 {
		if err := p.interrupted(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: enumeration found no verifying counterexamples")
	}
	return out, nil
}

// idsKey appends a compact binary encoding of the (sorted) id set to buf
// and returns the extended buffer. The previous implementation went through
// fmt.Sprint and strings.Join — two allocations per id on the enumeration
// hot path; this one allocates nothing (callers reuse the buffer and only
// the map's own string interning copies it, and only when the key is new).
func idsKey(ids []int, buf []byte) []byte {
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// cnfKey fingerprints a grounded witness formula: the clauses, the counted
// variables, and — crucially — which base tuple each counted variable
// stands for. Two witness cases with equal keys enumerate models that
// decode to identical id sets, so the second case's solver work is pure
// redundancy. Clause/variable numbering is build-order dependent, and
// structurally isomorphic formulas over different base tuples (same
// clauses, different varToID grounding) decode to different witnesses, so
// the grounding must be part of the key.
func cnfKey(clauses [][]int, counted []int, varToID map[int]int) string {
	var buf []byte
	for _, c := range clauses {
		for _, lit := range c {
			buf = binary.AppendVarint(buf, int64(lit))
		}
		buf = append(buf, 0)
	}
	buf = append(buf, 1)
	for _, v := range counted {
		buf = binary.AppendVarint(buf, int64(v))
		buf = binary.AppendVarint(buf, int64(varToID[v]))
	}
	return string(buf)
}
