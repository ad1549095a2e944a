package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the update-storm differential suite for full IVM: random plan
// pairs (θ-joins with NULL-able keys, Diff towers, γ plans with group
// birth/death, planner on and off) are driven through random interleaved
// insert/delete/update sequences, and after every ApplyDelta the uncommitted
// result — and after every Commit the retained state — must agree with a
// from-scratch evaluation of the materialized instance, including the batch
// layer (EvalBatchDiffs) over narrow and wide (K > 64) candidate sets.

// stormRels matches randomDB's schema: three relations over (a int, b int
// NULL-able, c string NULL-able).
var stormRels = []string{"R", "S", "T"}

// randomStormTuple draws a tuple for randomDB's schema. The value ranges
// deliberately overlap randomDB's (so inserts merge with existing tuples,
// exercising count increments on live and zombie entries) and occasionally
// exceed them (a ∈ {5, 6} births γ groups that never existed; NULLs
// exercise null join keys on the insert path).
func randomStormTuple(rng *rand.Rand) relation.Tuple {
	a := int64(rng.Intn(5))
	if rng.Intn(8) == 0 {
		a = 5 + int64(rng.Intn(2))
	}
	b := relation.Null()
	if rng.Intn(5) != 0 {
		b = relation.Int(int64(rng.Intn(3)))
	}
	c := relation.Null()
	if rng.Intn(7) != 0 {
		c = relation.String([]string{"x", "y", "z", "w"}[rng.Intn(4)])
	}
	return relation.NewTuple(relation.Int(a), b, c)
}

// stormOp is one step of an update storm: deletions, insertions, and
// updates already lowered to delete+insert.
type stormOp struct {
	removed  []relation.TupleID
	inserted []Insert
}

// randomStormOp draws one interleaved update against the current live set:
// 0–2 deletions, 0–2 insertions, and 0–1 single-tuple updates (delete a
// live tuple, insert a mutated copy into the same relation).
func randomStormOp(rng *rand.Rand, db *relation.Database, live []relation.TupleID) stormOp {
	var op stormOp
	for i := rng.Intn(3); i > 0 && len(live) > 0; i-- {
		op.removed = append(op.removed, live[rng.Intn(len(live))])
	}
	for i := rng.Intn(3); i > 0; i-- {
		op.inserted = append(op.inserted, Insert{
			Rel:   stormRels[rng.Intn(len(stormRels))],
			Tuple: randomStormTuple(rng),
		})
	}
	if rng.Intn(2) == 0 && len(live) > 0 {
		id := live[rng.Intn(len(live))]
		if rel, t, ok := db.Lookup(id); ok {
			mut := t.Clone()
			mut[0] = relation.Int(int64(rng.Intn(6)))
			op.removed = append(op.removed, id)
			op.inserted = append(op.inserted, Insert{Rel: rel, Tuple: mut})
		}
	}
	return op
}

// stormGroundTruth materializes the instance the op would produce (current
// live tuples minus op.removed, plus op.inserted) and evaluates both
// difference directions from scratch.
func stormGroundTruth(t *testing.T, q1, q2 ra.Node, db *relation.Database, live []relation.TupleID, op stormOp) (map[string]bool, map[string]bool) {
	t.Helper()
	gone := map[relation.TupleID]bool{}
	for _, id := range op.removed {
		gone[id] = true
	}
	keep := map[relation.TupleID]bool{}
	for _, id := range live {
		if !gone[id] {
			keep[id] = true
		}
	}
	sub := db.Subinstance(keep)
	for _, ins := range op.inserted {
		sub.Insert(ins.Rel, ins.Tuple)
	}
	return subDiffs(t, q1, q2, sub)
}

// checkStormResult compares an uncommitted DeltaResult against ground truth.
func checkStormResult(t *testing.T, trial, step int, q1, q2 ra.Node, res *DeltaResult, want12, want21 map[string]bool) {
	t.Helper()
	d12, err := res.Diff12()
	if err != nil {
		t.Fatalf("trial %d step %d: Diff12: %v", trial, step, err)
	}
	d21, err := res.Diff21()
	if err != nil {
		t.Fatalf("trial %d step %d: Diff21: %v", trial, step, err)
	}
	if !sameKeySets(want12, keySet(d12.Tuples)) || res.Size12() != len(want12) {
		t.Fatalf("trial %d step %d: Q1−Q2 mismatch: want %d, got %d (Size12=%d)\nq1: %s\nq2: %s",
			trial, step, len(want12), d12.Len(), res.Size12(), q1, q2)
	}
	if !sameKeySets(want21, keySet(d21.Tuples)) || res.Size21() != len(want21) {
		t.Fatalf("trial %d step %d: Q2−Q1 mismatch: want %d, got %d (Size21=%d)\nq1: %s\nq2: %s",
			trial, step, len(want21), d21.Len(), res.Size21(), q1, q2)
	}
	if res.Disagrees() != (len(want12) > 0 || len(want21) > 0) {
		t.Fatalf("trial %d step %d: Disagrees mismatch", trial, step)
	}
}

// checkBatchAgrees cross-checks the committed prepared state against the
// from-scratch batch layer on the same live set — the "ApplyDelta+Commit
// chain ≡ EvalBatchDiffs" half of the storm invariant. With wideK > 0 the
// candidate list is padded past 64 entries so the multi-word Bits semiring
// runs instead of the uint64 fast path.
func checkBatchAgrees(t *testing.T, trial, step int, q1, q2 ra.Node, db *relation.Database, live []relation.TupleID, want12, want21 map[string]bool, opts Options, wideK int) {
	t.Helper()
	candidates := [][]relation.TupleID{live}
	for k := 0; k < wideK; k++ {
		candidates = append(candidates, randomIDSubset(rand.New(rand.NewSource(int64(trial*1000+k))), live, len(live)/2))
	}
	b12, b21, err := EvalBatchDiffs(q1, q2, db, nil, candidates, opts)
	if errors.Is(err, ErrNoAggregates) {
		return // γ plans are delta-maintainable but not batchable
	}
	if err != nil {
		t.Fatalf("trial %d step %d: EvalBatchDiffs: %v", trial, step, err)
	}
	if !sameKeySets(want12, keySet(b12.ResultFor(0))) {
		t.Fatalf("trial %d step %d: batch Q1−Q2 disagrees with delta chain (K=%d)\nq1: %s\nq2: %s",
			trial, step, len(candidates), q1, q2)
	}
	if !sameKeySets(want21, keySet(b21.ResultFor(0))) {
		t.Fatalf("trial %d step %d: batch Q2−Q1 disagrees with delta chain (K=%d)\nq1: %s\nq2: %s",
			trial, step, len(candidates), q1, q2)
	}
}

// TestUpdateStormDifferential is the main storm suite: ≥250 prepared random
// plan pairs, each driven through a random interleaved insert/delete/update
// sequence with the full uncommitted-vs-scratch and committed-vs-scratch
// checks at every step.
func TestUpdateStormDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	prepared := 0
	for trial := 0; trial < 300; trial++ {
		db := randomDB(rng)
		q1, q2 := randomDiffPair(rng)
		opts := Options{}
		if trial%2 == 1 {
			opts.NoPlan = true // planner off: exercise the unplanned operator shapes
		}
		p, err := PrepareDiff(q1, q2, db, nil, opts)
		if err != nil {
			continue // row-budget / oversized-count plans legitimately fall back
		}
		prepared++
		steps := 3 + rng.Intn(4)
		for step := 0; step < steps; step++ {
			live := p.LiveIDs()
			op := randomStormOp(rng, db, live)
			want12, want21 := stormGroundTruth(t, q1, q2, db, live, op)

			res, err := p.ApplyDelta(op.removed, op.inserted)
			if err != nil {
				t.Fatalf("trial %d step %d: ApplyDelta: %v\nq1: %s\nq2: %s", trial, step, err, q1, q2)
			}
			checkStormResult(t, trial, step, q1, q2, res, want12, want21)

			// Occasionally race an independent same-epoch candidate: it must
			// see its own state, and committing it after res must fail stale.
			var rival *DeltaResult
			if rng.Intn(4) == 0 && len(live) > 0 {
				rOp := stormOp{removed: live[:1]}
				r12, r21 := stormGroundTruth(t, q1, q2, db, live, rOp)
				rival, err = p.ApplyDelta(rOp.removed, nil)
				if err != nil {
					t.Fatalf("trial %d step %d: rival ApplyDelta: %v", trial, step, err)
				}
				checkStormResult(t, trial, step, q1, q2, rival, r12, r21)
			}

			if err := res.Commit(); err != nil {
				t.Fatalf("trial %d step %d: Commit: %v", trial, step, err)
			}
			if rival != nil {
				if err := rival.Commit(); !errors.Is(err, ErrStaleDelta) {
					t.Fatalf("trial %d step %d: stale rival Commit: got %v, want ErrStaleDelta", trial, step, err)
				}
			}
			if got := res.InsertedIDs(); len(got) != len(op.inserted) {
				t.Fatalf("trial %d step %d: InsertedIDs: got %d ids for %d inserts", trial, step, len(got), len(op.inserted))
			}
			for i, id := range res.InsertedIDs() {
				rel, tup, ok := db.Lookup(id)
				if !ok || rel != op.inserted[i].Rel || !tup.Identical(op.inserted[i].Tuple) {
					t.Fatalf("trial %d step %d: InsertedIDs[%d] does not resolve to the inserted tuple", trial, step, i)
				}
			}

			// Committed state ≡ from-scratch on the new live set.
			liveNow := p.LiveIDs()
			if p.BaseSize() != len(liveNow) {
				t.Fatalf("trial %d step %d: BaseSize %d != |LiveIDs| %d", trial, step, p.BaseSize(), len(liveNow))
			}
			keep := map[relation.TupleID]bool{}
			for _, id := range liveNow {
				keep[id] = true
			}
			cw12, cw21 := subDiffs(t, q1, q2, db.Subinstance(keep))
			g12, g21 := p.Diffs()
			if !sameKeySets(cw12, keySet(g12.Tuples)) || !sameKeySets(cw21, keySet(g21.Tuples)) {
				t.Fatalf("trial %d step %d: committed state mismatch\nq1: %s\nq2: %s", trial, step, q1, q2)
			}
			if p.Disagrees() != (len(cw12) > 0 || len(cw21) > 0) {
				t.Fatalf("trial %d step %d: committed Disagrees mismatch", trial, step)
			}

			// From-scratch batch layer on the same instance; final step of
			// every 7th trial pads to K > 64 for the wide-bit semiring.
			wideK := 0
			if trial%7 == 0 && step == steps-1 {
				wideK = 66
			}
			checkBatchAgrees(t, trial, step, q1, q2, db, liveNow, cw12, cw21, opts, wideK)
		}
	}
	if prepared < 250 {
		t.Fatalf("storm coverage collapsed: only %d plan pairs prepared (want ≥ 250)", prepared)
	}
}

// selfJoinTower builds n nested natural self-joins of R — every level
// squares the derivation count of R's (single) distinct tuple, so counts
// reach dupes^(2^n).
func selfJoinTower(n int) ra.Node {
	var q ra.Node = &ra.Rel{Name: "R"}
	for i := 0; i < n; i++ {
		q = &ra.Join{L: q, R: q}
	}
	return q
}

// dupDB builds a database whose single relation R holds dupes identical
// single-column tuples (derivation count dupes for one distinct tuple).
func dupDB(dupes int) *relation.Database {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("a", relation.KindInt)))
	for i := 0; i < dupes; i++ {
		db.Insert("R", relation.NewTuple(relation.Int(1)))
	}
	return db
}

// TestPrepareDiffRefusesOversizedCounts: a plan whose base derivation
// counts exceed the exact-arithmetic bound must be refused with
// ErrNotIncremental at prepare time (count-saturated plan refusal).
func TestPrepareDiffRefusesOversizedCounts(t *testing.T) {
	db := dupDB(2)
	// 2^(2^5) = 2^32 > maxSafeCount.
	q := selfJoinTower(5)
	_, err := PrepareDiff(q, &ra.Rel{Name: "R"}, db, nil, Options{NoOptimize: true, NoPlan: true})
	if !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("PrepareDiff on saturating tower: got %v, want ErrNotIncremental", err)
	}
	// One level lower (2^16) is fine.
	if _, err := PrepareDiff(selfJoinTower(4), &ra.Rel{Name: "R"}, db, nil, Options{NoOptimize: true, NoPlan: true}); err != nil {
		t.Fatalf("PrepareDiff on safe tower: %v", err)
	}
}

// TestApplyDeltaRefusesOversizedCounts: an insertion delta that would push
// retained counts past the exact-arithmetic bound is refused with
// ErrNotIncremental, and the prepared state stays consistent and usable.
func TestApplyDeltaRefusesOversizedCounts(t *testing.T) {
	db := dupDB(2)
	// Base count at the top: 2^16. Two duplicate insertions make the scan
	// count 4, so the top candidate count is 4^16 = 2^32 > maxSafeCount.
	p, err := PrepareDiff(selfJoinTower(4), &ra.Rel{Name: "R"}, db, nil, Options{NoOptimize: true, NoPlan: true})
	if err != nil {
		t.Fatalf("PrepareDiff: %v", err)
	}
	dup := Insert{Rel: "R", Tuple: relation.NewTuple(relation.Int(1))}
	_, err = p.ApplyDelta(nil, []Insert{dup, dup})
	if !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("saturating ApplyDelta: got %v, want ErrNotIncremental", err)
	}
	if p.Epoch() != 0 {
		t.Fatalf("failed ApplyDelta advanced the epoch to %d", p.Epoch())
	}
	// The prepared object must remain usable: a safe delta (one insertion,
	// top count 3^16 < 2^30) still evaluates and commits.
	res, err := p.ApplyDelta(nil, []Insert{dup})
	if err != nil {
		t.Fatalf("safe ApplyDelta after refusal: %v", err)
	}
	if err := res.Commit(); err != nil {
		t.Fatalf("Commit after refusal: %v", err)
	}
	if p.BaseSize() != 3 {
		t.Fatalf("BaseSize after insert: got %d, want 3", p.BaseSize())
	}
}

// TestApplyDeltaValidation: insertions into unknown relations or with the
// wrong arity fail cleanly — no panic, no state change — and a result
// computed before the failed call still commits (a failed ApplyDelta must
// not advance or corrupt the epoch).
func TestApplyDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng)
	q1, q2 := randomCompat(rng, 2), randomCompat(rng, 2)
	p, err := PrepareDiff(q1, q2, db, nil, Options{})
	if err != nil {
		t.Fatalf("PrepareDiff: %v", err)
	}
	good, err := p.ApplyDelta(nil, []Insert{{Rel: "R", Tuple: randomStormTuple(rng)}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if _, err := p.ApplyDelta(nil, []Insert{{Rel: "nope", Tuple: randomStormTuple(rng)}}); err == nil {
		t.Fatal("insert into unknown relation succeeded")
	}
	if _, err := p.ApplyDelta(nil, []Insert{{Rel: "R", Tuple: relation.NewTuple(relation.Int(1))}}); err == nil {
		t.Fatal("arity-mismatched insert succeeded")
	}
	if p.Epoch() != 0 {
		t.Fatalf("failed ApplyDelta advanced the epoch to %d", p.Epoch())
	}
	// The pre-failure result is not stale: the failures changed nothing.
	if err := good.Commit(); err != nil {
		t.Fatalf("Commit after failed ApplyDelta calls: %v", err)
	}
	// Re-committing it against the advanced epoch must fail stale.
	if err := good.Commit(); !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("double Commit: got %v, want ErrStaleDelta", err)
	}
}
