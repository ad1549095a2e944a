package engine

import (
	"repro/internal/ra"
	"repro/internal/relation"
)

// BatchResult is the outcome of one batched evaluation: the union support
// (every tuple in the result for at least one candidate subinstance) and a
// per-candidate presence mask per tuple. Candidate k's result is the set of
// tuples whose bit k is set.
type BatchResult struct {
	// Schema is the result schema (shared by all candidates).
	Schema relation.Schema
	// Tuples is the union support across candidates.
	Tuples []relation.Tuple
	// K is the number of candidates in the batch.
	K int

	words int
	bits  []uint64 // tuple i's mask occupies bits[i*words : (i+1)*words]
	any   Bits     // OR over all tuple masks: which candidates have a nonempty result
}

// Len returns the size of the union support.
func (b *BatchResult) Len() int { return len(b.Tuples) }

// Has reports whether tuple i is in candidate k's result.
func (b *BatchResult) Has(i, k int) bool {
	return b.bits[i*b.words+k/64]>>(uint(k)%64)&1 != 0
}

// NonEmpty reports whether candidate k's result contains any tuple.
func (b *BatchResult) NonEmpty(k int) bool { return b.any.Get(k) }

// ResultFor materializes candidate k's result tuples (a subsequence of the
// union support, preserving its order).
func (b *BatchResult) ResultFor(k int) []relation.Tuple {
	var out []relation.Tuple
	for i := range b.Tuples {
		if b.Has(i, k) {
			out = append(out, b.Tuples[i])
		}
	}
	return out
}

// assemble64 converts a word-annotated relation into a BatchResult,
// dropping tuples outside every candidate's result.
func assemble64(rel *Rel[uint64], k int) *BatchResult {
	out := &BatchResult{Schema: rel.Schema, K: k, words: 1, any: make(Bits, 1)}
	out.Tuples = make([]relation.Tuple, 0, rel.Len())
	out.bits = make([]uint64, 0, rel.Len())
	for i, ann := range rel.Anns {
		if ann == 0 {
			continue // in no candidate's result: not part of the support
		}
		out.Tuples = append(out.Tuples, rel.Tuples[i])
		out.bits = append(out.bits, ann)
		out.any[0] |= ann
	}
	return out
}

// assembleWide is assemble64 for multi-word masks.
func assembleWide(rel *Rel[Bits], k int) *BatchResult {
	words := (k + 63) / 64
	out := &BatchResult{Schema: rel.Schema, K: k, words: words, any: make(Bits, words)}
	out.Tuples = make([]relation.Tuple, 0, rel.Len())
	out.bits = make([]uint64, 0, rel.Len()*words)
	for i, ann := range rel.Anns {
		if ann.isZero() {
			continue
		}
		out.Tuples = append(out.Tuples, rel.Tuples[i])
		for w := 0; w < words; w++ {
			out.bits = append(out.bits, ann[w])
			out.any[w] |= ann[w]
		}
	}
	return out
}

// EvalBatch evaluates q once over the full database and answers, for each
// of the K candidate subinstances (sets of base-tuple identifiers), which
// tuples q produces on that subinstance — one engine pass under a bitvector
// semiring instead of K per-candidate database constructions and
// evaluations. Set semantics only; the per-candidate results equal
// independent Eval runs on db.Subinstance of each candidate.
//
// Batches of up to 64 candidates run with word-sized (uint64) annotations;
// larger batches use multi-word masks. Plans containing GroupBy return an
// error wrapping ErrNoAggregates (γ is not per-bit sound); callers fall
// back to per-candidate evaluation, detected via errors.Is.
func EvalBatch(q ra.Node, db *relation.Database, params map[string]relation.Value, candidates [][]relation.TupleID, opts Options) (*BatchResult, error) {
	k := len(candidates)
	if k == 0 {
		return &BatchResult{words: 1}, nil
	}
	if k <= 64 {
		s, err := NewBitSemiring(candidates)
		if err != nil {
			return nil, err
		}
		rel, err := RunOpts[uint64](s, q, db, params, opts)
		if err != nil {
			return nil, err
		}
		return assemble64(rel, k), nil
	}
	s := NewWideBitSemiring(candidates)
	rel, err := RunOpts[Bits](s, q, db, params, opts)
	if err != nil {
		return nil, err
	}
	return assembleWide(rel, k), nil
}

// evalPairDiffs evaluates q1 and q2 in one exec (the subtrees they share,
// base scans included, are evaluated once for both) and returns the two
// physical differences q1 − q2 and q2 − q1.
func evalPairDiffs[T any](s Semiring[T], q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*Rel[T], *Rel[T], error) {
	qs, err := prepare([]ra.Node{q1, q2}, db, opts, true)
	if err != nil {
		return nil, nil, err
	}
	ds, err := newExec(s, db, params, opts).run(&ra.Diff{L: qs[0], R: qs[1]}, &ra.Diff{L: qs[1], R: qs[0]})
	if err != nil {
		return nil, nil, err
	}
	return ds[0], ds[1], nil
}

// EvalBatchDiffs answers, for each candidate subinstance, which tuples
// Q1 − Q2 and Q2 − Q1 produce on it. It is EvalBatch for both difference
// directions at once, sharing the query evaluations: Q1 and Q2 are each
// evaluated a single time (with their common subtrees shared) instead of
// twice as two independent &ra.Diff plans would. This is the engine half of
// the batched Verify: candidate k is a counterexample iff either direction
// is nonempty at bit k.
func EvalBatchDiffs(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, candidates [][]relation.TupleID, opts Options) (*BatchResult, *BatchResult, error) {
	k := len(candidates)
	if k == 0 {
		return &BatchResult{words: 1}, &BatchResult{words: 1}, nil
	}
	if k <= 64 {
		s, err := NewBitSemiring(candidates)
		if err != nil {
			return nil, nil, err
		}
		d12, d21, err := evalPairDiffs[uint64](s, q1, q2, db, params, opts)
		if err != nil {
			return nil, nil, err
		}
		return assemble64(d12, k), assemble64(d21, k), nil
	}
	s := NewWideBitSemiring(candidates)
	d12, d21, err := evalPairDiffs[Bits](s, q1, q2, db, params, opts)
	if err != nil {
		return nil, nil, err
	}
	return assembleWide(d12, k), assembleWide(d21, k), nil
}
