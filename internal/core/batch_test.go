package core

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/testdb"
)

// randomIDSets draws n random subsets of the database's tuple ids.
func randomIDSets(rng *rand.Rand, db *relation.Database, n int) [][]int {
	all := db.AllIDs()
	out := make([][]int, n)
	for i := range out {
		for _, id := range all {
			if rng.Intn(2) == 0 {
				out[i] = append(out[i], int(id))
			}
		}
	}
	return out
}

// TestDisagreeBatchMatchesPerCandidate: the batched disagreement check
// agrees with evaluate-on-subinstance for random candidate sets of the
// running example, across both the word-sized and wide mask paths.
func TestDisagreeBatchMatchesPerCandidate(t *testing.T) {
	p := example1Problem()
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 70} {
		idSets := randomIDSets(rng, p.DB, n)
		got, err := DisagreeBatch(p, idSets)
		if err != nil {
			t.Fatal(err)
		}
		for k, ids := range idSets {
			sub, _ := subinstanceFromIDs(p.DB, ids)
			want, _, _, err := Disagrees(p.Q1, p.Q2, sub, p.Params)
			if err != nil {
				t.Fatal(err)
			}
			if got[k] != want {
				t.Errorf("n=%d candidate %d (%v): batch=%v per-candidate=%v", n, k, ids, got[k], want)
			}
		}
	}
}

// TestDisagreeBatchAggregateFallback: plans containing γ cannot run under
// the bitvector semiring; DisagreeBatch must fall back to per-candidate
// evaluation and still produce correct answers.
func TestDisagreeBatchAggregateFallback(t *testing.T) {
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB()}
	rng := rand.New(rand.NewSource(7))
	idSets := randomIDSets(rng, p.DB, 12)
	got, err := DisagreeBatch(p, idSets)
	if err != nil {
		t.Fatal(err)
	}
	for k, ids := range idSets {
		sub, _ := subinstanceFromIDs(p.DB, ids)
		want, _, _, err := Disagrees(p.Q1, p.Q2, sub, p.Params)
		if err != nil {
			t.Fatal(err)
		}
		if got[k] != want {
			t.Errorf("candidate %d (%v): batch=%v per-candidate=%v", k, ids, got[k], want)
		}
	}
}

// TestVerifyBatchMatchesVerify: batch accept/reject decisions equal
// per-candidate Verify, and accepted candidates come back as verified
// counterexamples.
func TestVerifyBatchMatchesVerify(t *testing.T) {
	p := example1Problem()
	p.Constraints = testdb.Constraints()
	rng := rand.New(rand.NewSource(99))
	idSets := randomIDSets(rng, p.DB, 40)
	// Include a known witness (Example 1: student t1 with registrations
	// t4, t5) and the empty set.
	idSets = append(idSets, []int{1, 4, 5}, nil)
	ces, err := VerifyBatch(p, idSets)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for k, ids := range idSets {
		sub, tids := subinstanceFromIDs(p.DB, ids)
		want := Verify(p, &Counterexample{DB: sub, IDs: tids}) == nil
		if (ces[k] != nil) != want {
			t.Errorf("candidate %d (%v): batch accept=%v, Verify accept=%v", k, ids, ces[k] != nil, want)
		}
		if ces[k] != nil {
			accepted++
			if err := Verify(p, ces[k]); err != nil {
				t.Errorf("candidate %d: VerifyBatch returned an invalid counterexample: %v", k, err)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no candidate accepted — the known witness {1,4,5} should verify")
	}
}
