package core

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/relation"
)

// This file is the batched accept-reject layer used by the search
// algorithms: instead of materializing a fresh subinstance database and
// re-running Q1 − Q2 from scratch for every candidate witness, the
// candidates are checked together with one engine pass per difference
// direction under the bitvector semiring (engine.EvalBatch). Plans the
// bitvector semiring cannot evaluate — aggregates (γ is not per-bit sound)
// — and batches that blow the row budget fall back to the existing
// per-candidate path, so behaviour is unchanged, only faster.

// disagreeChunk bounds how many candidates one engine pass carries. Within
// a chunk of 64 the annotations are single machine words; wider chunks
// amortize the pass further at the cost of multi-word masks. 256 (4 words)
// balances the two for the enumeration workloads.
const disagreeChunk = 256

// DisagreeBatch reports, for every candidate subinstance (a set of base
// tuple identifiers over p.DB), whether Q1 and Q2 disagree on it — the
// engine-expensive core of Verify, batched. Parameters are the problem's:
// candidates needing their own λ settings must go through Verify.
func DisagreeBatch(p Problem, idSets [][]int) ([]bool, error) {
	out := make([]bool, len(idSets))
	if len(idSets) == 0 {
		return out, nil
	}
	cands := make([][]relation.TupleID, len(idSets))
	for i, ids := range idSets {
		c := make([]relation.TupleID, len(ids))
		for j, id := range ids {
			c[j] = relation.TupleID(id)
		}
		cands[i] = c
	}
	for lo := 0; lo < len(cands); lo += disagreeChunk {
		if err := p.interrupted(); err != nil {
			return nil, err
		}
		hi := lo + disagreeChunk
		if hi > len(cands) {
			hi = len(cands)
		}
		chunk := cands[lo:hi]
		d12, d21, err := engine.EvalBatchDiffs(p.Q1, p.Q2, p.DB, p.Params, chunk, p.engineOpts())
		if err != nil {
			if !errors.Is(err, engine.ErrNoAggregates) && !errors.Is(err, engine.ErrRowBudget) {
				return nil, err
			}
			// γ plans (or batches past the row budget): per-candidate
			// fallback via the existing evaluate-on-subinstance path.
			for k := lo; k < hi; k++ {
				sub, _ := subinstanceFromIDs(p.DB, idSets[k])
				differs, _, _, derr := p.disagrees(sub)
				if derr != nil {
					return nil, derr
				}
				out[k] = differs
			}
			continue
		}
		for k := lo; k < hi; k++ {
			out[k] = d12.NonEmpty(k-lo) || d21.NonEmpty(k-lo)
		}
	}
	return out, nil
}

// constraintsHold reports whether db satisfies every problem constraint.
func constraintsHold(p Problem, db *relation.Database) bool {
	for _, c := range p.Constraints {
		if err := c.Validate(db); err != nil {
			return false
		}
	}
	return true
}

// VerifyBatch verifies many candidate witnesses at once: it returns, for
// each id set, the verified Counterexample (DB and IDs populated; the
// caller attaches its Witness tuple) or nil when the candidate is rejected
// — the same accept/reject decisions as per-candidate Verify, but with the
// query evaluations batched. Subinstance databases are only materialized
// for candidates whose disagreement already checked out.
func VerifyBatch(p Problem, idSets [][]int) ([]*Counterexample, error) {
	disagree, err := DisagreeBatch(p, idSets)
	if err != nil {
		return nil, err
	}
	out := make([]*Counterexample, len(idSets))
	for k, ids := range idSets {
		if !disagree[k] {
			continue
		}
		sub, tids := subinstanceFromIDs(p.DB, ids)
		if !sub.SubinstanceOf(p.DB) || !constraintsHold(p, sub) {
			continue
		}
		out[k] = &Counterexample{DB: sub, IDs: tids}
	}
	return out, nil
}
