package engine

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// randomCandidates draws k random subsets of the database's tuple ids
// (including occasional empty and full candidates).
func randomCandidates(rng *rand.Rand, db *relation.Database, k int) [][]relation.TupleID {
	all := db.AllIDs()
	out := make([][]relation.TupleID, k)
	for i := range out {
		switch rng.Intn(8) {
		case 0: // empty subinstance
		case 1: // full instance
			out[i] = append([]relation.TupleID(nil), all...)
		default:
			for _, id := range all {
				if rng.Intn(2) == 0 {
					out[i] = append(out[i], id)
				}
			}
		}
	}
	return out
}

func keepSet(cand []relation.TupleID) map[relation.TupleID]bool {
	m := make(map[relation.TupleID]bool, len(cand))
	for _, id := range cand {
		m[id] = true
	}
	return m
}

// TestDifferentialBatch: EvalBatch over K candidates ≡ K independent
// engine.Eval runs on the per-candidate subinstances, over random SPJUD
// plans (including Diff operators and NULL join keys) for both the
// word-sized (K ≤ 64) and wide (K > 64) bitvector paths.
func TestDifferentialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 220; trial++ {
		db := randomDB(rng)
		q := randomPlan(rng)
		k := 1 + rng.Intn(6)
		if trial%10 == 0 {
			k = 65 + rng.Intn(8) // exercise the wide ([]uint64) semiring
		}
		cands := randomCandidates(rng, db, k)
		got, err := EvalBatch(q, db, nil, cands, Options{})
		if err != nil {
			t.Fatalf("trial %d: EvalBatch: %v\n%s", trial, err, q)
		}
		if got.K != k {
			t.Fatalf("trial %d: K = %d, want %d", trial, got.K, k)
		}
		for c := 0; c < k; c++ {
			sub := db.Subinstance(keepSet(cands[c]))
			want, err := Eval(q, sub, nil)
			if err != nil {
				t.Fatalf("trial %d cand %d: per-candidate Eval: %v\n%s", trial, c, err, q)
			}
			if !sameKeySets(keySet(want.Tuples), keySet(got.ResultFor(c))) {
				t.Fatalf("trial %d cand %d/%d: batched ≠ per-candidate\nquery: %s\nwant %v\ngot %v\ncandidate %v",
					trial, c, k, q, want.Tuples, got.ResultFor(c), cands[c])
			}
			if got.NonEmpty(c) != (want.Len() > 0) {
				t.Fatalf("trial %d cand %d: NonEmpty = %v but per-candidate result has %d tuples",
					trial, c, got.NonEmpty(c), want.Len())
			}
		}
		// The union support carries no tuple outside every candidate.
		for i := range got.Tuples {
			anyBit := false
			for c := 0; c < k && !anyBit; c++ {
				anyBit = got.Has(i, c)
			}
			if !anyBit {
				t.Fatalf("trial %d: support tuple %v has an all-zero mask", trial, got.Tuples[i])
			}
		}
	}
}

// TestDifferentialBatchDiffs: the shared-scan pair entry (both directions
// of Q1 − Q2 in one pass) agrees with per-candidate evaluation of the two
// difference plans.
func TestDifferentialBatchDiffs(t *testing.T) {
	rng := rand.New(rand.NewSource(77177))
	for trial := 0; trial < 120; trial++ {
		db := randomDB(rng)
		q1 := randomCompat(rng, 2)
		q2 := randomCompat(rng, 2)
		k := 1 + rng.Intn(6)
		if trial%9 == 0 {
			k = 65 + rng.Intn(8)
		}
		cands := randomCandidates(rng, db, k)
		d12, d21, err := EvalBatchDiffs(q1, q2, db, nil, cands, Options{})
		if err != nil {
			t.Fatalf("trial %d: EvalBatchDiffs: %v", trial, err)
		}
		for c := 0; c < k; c++ {
			sub := db.Subinstance(keepSet(cands[c]))
			w12, err := Eval(&ra.Diff{L: q1, R: q2}, sub, nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			w21, err := Eval(&ra.Diff{L: q2, R: q1}, sub, nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !sameKeySets(keySet(w12.Tuples), keySet(d12.ResultFor(c))) {
				t.Fatalf("trial %d cand %d: d12 batched ≠ per-candidate\nq1: %s\nq2: %s",
					trial, c, q1, q2)
			}
			if !sameKeySets(keySet(w21.Tuples), keySet(d21.ResultFor(c))) {
				t.Fatalf("trial %d cand %d: d21 batched ≠ per-candidate\nq1: %s\nq2: %s",
					trial, c, q1, q2)
			}
		}
	}
}

// TestScanCacheSelfJoin: a relation referenced twice is one shared node of
// the prepared plan, scanned once, and sharing its result does not corrupt
// self-joins or self-differences.
func TestScanCacheSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := randomDB(rng)
	// R ⋈ R (self natural join on all columns ≡ R), R − R (empty), and
	// (R ∪ R) ≡ R, all reading the same shared scan.
	r, err := Eval(&ra.Rel{Name: "R"}, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	selfJoin, err := Eval(&ra.Join{L: &ra.Rel{Name: "R"}, R: &ra.Rel{Name: "R"}}, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// NULLs never join, so the self natural join keeps exactly the
	// NULL-free tuples of R.
	var nullFree []relation.Tuple
	for _, tup := range r.Tuples {
		if !slices.ContainsFunc(tup, relation.Value.IsNull) {
			nullFree = append(nullFree, tup)
		}
	}
	if !sameKeySets(keySet(nullFree), keySet(selfJoin.Tuples)) {
		t.Errorf("R ⋈ R ≠ NULL-free R with the shared scan")
	}
	selfDiff, err := Eval(&ra.Diff{L: &ra.Rel{Name: "R"}, R: &ra.Rel{Name: "R"}}, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if selfDiff.Len() != 0 {
		t.Errorf("R − R = %d tuples, want 0", selfDiff.Len())
	}
	selfUnion, err := Eval(&ra.Union{L: &ra.Rel{Name: "R"}, R: &ra.Rel{Name: "R"}}, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeySets(keySet(r.Tuples), keySet(selfUnion.Tuples)) {
		t.Errorf("R ∪ R ≠ R with the shared scan")
	}
}

// TestBatchGroupByFallsBack: plans containing γ are rejected with an error
// wrapping ErrNoAggregates — the signal batch callers use to fall back to
// per-candidate evaluation.
func TestBatchGroupByFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randomDB(rng)
	q := &ra.GroupBy{
		GroupCols: []string{"a"},
		Aggs:      []ra.AggSpec{{Func: ra.Count, As: "n"}},
		In:        &ra.Rel{Name: "R"},
	}
	cands := randomCandidates(rng, db, 3)
	_, err := EvalBatch(q, db, nil, cands, Options{})
	if !errors.Is(err, ErrNoAggregates) {
		t.Fatalf("EvalBatch on a γ plan: err = %v, want ErrNoAggregates", err)
	}
	// The set semiring still aggregates: the gate is per-semiring, not
	// per-plan.
	if _, err := Eval(q, db, nil); err != nil {
		t.Fatalf("set-semiring γ evaluation broke: %v", err)
	}
}

// TestBatchEmpty: a zero-candidate batch is a well-formed empty result.
func TestBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := randomDB(rng)
	res, err := EvalBatch(&ra.Rel{Name: "R"}, db, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 || res.Len() != 0 {
		t.Fatalf("empty batch: K=%d len=%d", res.K, res.Len())
	}
}

// TestBitSemiringLaws spot-checks the semiring structure of both mask
// widths: identities, idempotence and the difference rule, including the
// partial last word of a non-multiple-of-64 wide batch.
func TestBitSemiringLaws(t *testing.T) {
	cands := [][]relation.TupleID{{1, 2}, {2, 3}, {3}}
	s, err := NewBitSemiring(cands)
	if err != nil {
		t.Fatal(err)
	}
	if s.One() != 0b111 {
		t.Errorf("One = %b, want 111", s.One())
	}
	l2, _ := s.Leaf(2)
	if l2 != 0b011 {
		t.Errorf("Leaf(2) = %b, want 011 (candidates 0 and 1)", l2)
	}
	l9, _ := s.Leaf(9)
	if l9 != 0 || !s.IsZero(l9) {
		t.Errorf("Leaf of an uncovered id should be zero, got %b", l9)
	}
	if _, err := s.Leaf(relation.InvalidTupleID); err == nil {
		t.Error("Leaf(InvalidTupleID) should error")
	}
	if got := s.Minus(0b110, 0b010); got != 0b100 {
		t.Errorf("Minus = %b, want 100", got)
	}

	wide := make([][]relation.TupleID, 70)
	for i := range wide {
		wide[i] = []relation.TupleID{relation.TupleID(i % 5)}
	}
	w := NewWideBitSemiring(wide)
	one := w.One()
	if len(one) != 2 || one[0] != ^uint64(0) || one[1] != 1<<6-1 {
		t.Errorf("wide One = %v, want 64+6 bits", one)
	}
	leaf, _ := w.Leaf(3)
	if w.IsZero(leaf) || !leaf.Get(3) || !leaf.Get(68) {
		t.Errorf("wide Leaf(3) = %v: want bits 3, 8, ..., 68", leaf)
	}
	if got := w.Times(one, leaf); !sameBits(got, leaf) {
		t.Errorf("One ⊗ a ≠ a: %v vs %v", got, leaf)
	}
	if got := w.Plus(w.Zero(), leaf); !sameBits(got, leaf) {
		t.Errorf("Zero ⊕ a ≠ a: %v vs %v", got, leaf)
	}
	if got := w.Minus(leaf, leaf); !w.IsZero(got) {
		t.Errorf("a − a ≠ 0: %v", got)
	}
}

func sameBits(a, b Bits) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n*64; i++ {
		if a.Get(i) != b.Get(i) {
			return false
		}
	}
	return true
}
