package engine

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file differentially tests the delta-incremental subsystem:
// PreparedDiff.ApplyDelta over random plan pairs (including Diff towers, NULL
// join keys, θ-joins with residuals, and γ plans exercising the group-level
// re-aggregation) must agree with a full EvalDiffs-style evaluation on the
// materialized subinstance, for independent deltas (empty, singleton, half,
// full) and for committed delta chains.

// randomPairKind picks the shape of a (q1, q2) pair: plain SPJUD-compatible
// plans, θ-equi-join-wrapped plans (NULL join keys, residual conditions), or
// γ plans (group-level incremental re-aggregation).
func randomDiffPair(rng *rand.Rand) (ra.Node, ra.Node) {
	switch rng.Intn(5) {
	case 0: // θ-join wrapped, shared projection so the pair stays compatible
		wrap := func(q ra.Node) ra.Node {
			cond := ra.Expr(&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u.a"}, R: &ra.AttrRef{Name: "v.a"}})
			if rng.Intn(2) == 0 {
				cond = &ra.And{Kids: []ra.Expr{cond,
					&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "u.b"}, R: &ra.AttrRef{Name: "v.b"}}}}
			}
			if rng.Intn(2) == 0 {
				cond = &ra.And{Kids: []ra.Expr{cond,
					&ra.Cmp{Op: ra.LE, L: &ra.AttrRef{Name: "u.b"}, R: &ra.AttrRef{Name: "v.a"}}}}
			}
			return &ra.Project{Cols: []string{"u.a", "v.c"}, In: &ra.Join{
				L:    &ra.Rename{As: "u", In: q},
				R:    &ra.Rename{As: "v", In: randomCompat(rng, 1)},
				Cond: cond,
			}}
		}
		return wrap(randomCompat(rng, 2)), wrap(randomCompat(rng, 2))
	case 1: // γ over random (possibly Diff-containing) inputs
		gb := func(q ra.Node) ra.Node {
			return &ra.GroupBy{
				GroupCols: []string{"a"},
				Aggs: []ra.AggSpec{
					{Func: ra.Count, As: "n"},
					{Func: ra.Sum, Attr: "b", As: "s"},
					{Func: ra.Min, Attr: "c", As: "m"},
				},
				In: q,
			}
		}
		return gb(randomCompat(rng, 2)), gb(randomCompat(rng, 2))
	case 2: // explicit Diff towers on both sides
		return &ra.Diff{L: randomCompat(rng, 2), R: randomCompat(rng, 2)},
			&ra.Diff{L: randomCompat(rng, 2), R: randomCompat(rng, 2)}
	default:
		return randomCompat(rng, 2), randomCompat(rng, 2)
	}
}

// subDiffs computes the ground truth: both difference directions of the
// pair on the materialized subinstance, via the full engine.
func subDiffs(t *testing.T, q1, q2 ra.Node, sub *relation.Database) (map[string]bool, map[string]bool) {
	t.Helper()
	r1, err := Eval(q1, sub, nil)
	if err != nil {
		t.Fatalf("ground truth q1: %v", err)
	}
	r2, err := Eval(q2, sub, nil)
	if err != nil {
		t.Fatalf("ground truth q2: %v", err)
	}
	return keySet(r1.SetDiff(r2).Tuples), keySet(r2.SetDiff(r1).Tuples)
}

func checkDelta(t *testing.T, trial int, q1, q2 ra.Node, db *relation.Database, res *DeltaResult, keep map[relation.TupleID]bool) {
	t.Helper()
	sub := db.Subinstance(keep)
	want12, want21 := subDiffs(t, q1, q2, sub)
	d12, err := res.Diff12()
	if err != nil {
		t.Fatalf("trial %d: Diff12: %v", trial, err)
	}
	d21, err := res.Diff21()
	if err != nil {
		t.Fatalf("trial %d: Diff21: %v", trial, err)
	}
	got12 := keySet(d12.Tuples)
	got21 := keySet(d21.Tuples)
	if !sameKeySets(want12, got12) || len(want12) != res.Size12() {
		t.Fatalf("trial %d: Q1−Q2 mismatch: want %d tuples, got %d (Size12=%d)\nq1: %s\nq2: %s",
			trial, len(want12), len(got12), res.Size12(), q1, q2)
	}
	if !sameKeySets(want21, got21) || len(want21) != res.Size21() {
		t.Fatalf("trial %d: Q2−Q1 mismatch: want %d tuples, got %d (Size21=%d)\nq1: %s\nq2: %s",
			trial, len(want21), len(got21), res.Size21(), q1, q2)
	}
	if res.Disagrees() != (len(want12) > 0 || len(want21) > 0) {
		t.Fatalf("trial %d: Disagrees mismatch", trial)
	}
}

// TestPreparedDiffDifferential: ApplyDelta ≡ full evaluation on the
// materialized subinstance over ≥200 random plan pairs and deltas of every
// size class, evaluated independently (no commits).
func TestPreparedDiffDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	prepared := 0
	for trial := 0; trial < 220; trial++ {
		db := randomDB(rng)
		q1, q2 := randomDiffPair(rng)
		p, err := PrepareDiff(q1, q2, db, nil, Options{})
		if err != nil {
			// Row-budget plans are legitimately unpreparable; anything else
			// would also fail a full evaluation.
			continue
		}
		prepared++
		all := db.AllIDs()
		deltas := [][]relation.TupleID{
			nil,     // empty delta: the base instance itself
			all[:1], // singleton
			all,     // full delta: everything deleted
			randomIDSubset(rng, all, len(all)/2),
			randomIDSubset(rng, all, 1+rng.Intn(len(all))),
		}
		for _, removed := range deltas {
			res, err := p.ApplyDelta(removed, nil)
			if err != nil {
				t.Fatalf("trial %d: ApplyDelta: %v\nq1: %s\nq2: %s", trial, err, q1, q2)
			}
			keep := map[relation.TupleID]bool{}
			gone := map[relation.TupleID]bool{}
			for _, id := range removed {
				gone[id] = true
			}
			for _, id := range all {
				if !gone[id] {
					keep[id] = true
				}
			}
			checkDelta(t, trial, q1, q2, db, res, keep)
		}
	}
	if prepared < 200 {
		t.Fatalf("only %d/220 random plan pairs prepared; differential coverage too thin", prepared)
	}
}

// TestPreparedDiffCommitChain: committed deltas accumulate — each
// subsequent ApplyDelta is relative to the shrunk base — and the final state
// matches a fresh evaluation of the remaining subinstance.
func TestPreparedDiffCommitChain(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		db := randomDB(rng)
		q1, q2 := randomDiffPair(rng)
		p, err := PrepareDiff(q1, q2, db, nil, Options{})
		if err != nil {
			continue
		}
		all := db.AllIDs()
		gone := map[relation.TupleID]bool{}
		for step := 0; step < 6 && len(gone) < len(all); step++ {
			removed := randomIDSubset(rng, all, 1+rng.Intn(3))
			res, err := p.ApplyDelta(removed, nil)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for _, id := range removed {
				gone[id] = true
			}
			keep := map[relation.TupleID]bool{}
			for _, id := range all {
				if !gone[id] {
					keep[id] = true
				}
			}
			checkDelta(t, trial, q1, q2, db, res, keep)
			if err := res.Commit(); err != nil {
				t.Fatalf("trial %d step %d: commit: %v", trial, step, err)
			}
			if p.BaseSize() != len(keep) {
				t.Fatalf("trial %d step %d: BaseSize %d, want %d", trial, step, p.BaseSize(), len(keep))
			}
			// The committed base diffs must also match the subinstance.
			want12, want21 := subDiffs(t, q1, q2, db.Subinstance(keep))
			d12, d21 := p.Diffs()
			if !sameKeySets(want12, keySet(d12.Tuples)) || !sameKeySets(want21, keySet(d21.Tuples)) {
				t.Fatalf("trial %d step %d: committed base diffs diverge", trial, step)
			}
		}
	}
}

// TestPreparedDiffStaleCommit: a DeltaResult computed before another commit
// advanced the base refuses to commit.
func TestPreparedDiffStaleCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng)
	q1, q2 := randomCompat(rng, 2), randomCompat(rng, 2)
	p, err := PrepareDiff(q1, q2, db, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := db.AllIDs()
	a, err := p.ApplyDelta(all[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ApplyDelta(all[1:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("stale commit: got %v, want ErrStaleDelta", err)
	}
	// A committed result materializes the (now folded-in) base; a superseded
	// one refuses rather than double-applying its delta.
	if d, err := a.Diff12(); err != nil {
		t.Fatalf("committed Diff12: %v", err)
	} else if base12, _ := p.Diffs(); !sameKeySets(keySet(d.Tuples), keySet(base12.Tuples)) {
		t.Fatal("committed Diff12 diverges from the base diffs")
	}
	if _, err := b.Diff12(); !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("stale Diff12: got %v, want ErrStaleDelta", err)
	}
	// Removing an already-removed id is a no-op, not a double decrement.
	c, err := p.ApplyDelta(all[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	base12, _ := p.Diffs()
	if c.Size12() != base12.Len() {
		t.Fatalf("re-removing a dead id changed the result: %d vs %d", c.Size12(), base12.Len())
	}
}

// TestPreparedDiffInterleavedWithBatch: uncommitted ApplyDelta results and
// batch-layer evaluations of the same (Q1, Q2, D) never share state — the
// prepared state must stay valid across interleaved EvalBatchDiffs calls
// (regression guard for the witness loops, where one enumeration mixes both
// paths).
func TestPreparedDiffInterleavedWithBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(rng)
		q1, q2 := randomDiffPair(rng)
		p, err := PrepareDiff(q1, q2, db, nil, Options{})
		if err != nil {
			continue
		}
		all := db.AllIDs()
		removed := randomIDSubset(rng, all, len(all)/3)
		keep := complementIDs(all, removed)
		before, err := p.ApplyDelta(removed, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Batch evaluation of the same candidate in between.
		var cand []relation.TupleID
		for id := range keep {
			cand = append(cand, id)
		}
		sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
		d12b, d21b, err := EvalBatchDiffs(q1, q2, db, nil, [][]relation.TupleID{cand}, Options{})
		batchOK := err == nil
		after, err := p.ApplyDelta(removed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if before.Size12() != after.Size12() || before.Size21() != after.Size21() {
			t.Fatalf("trial %d: batch evaluation perturbed prepared state: (%d,%d) vs (%d,%d)",
				trial, before.Size12(), before.Size21(), after.Size12(), after.Size21())
		}
		checkDelta(t, trial, q1, q2, db, after, keep)
		if batchOK {
			if got, want := d12b.NonEmpty(0), after.Size12() > 0; got != want {
				t.Fatalf("trial %d: batch and delta disagree on Q1−Q2 emptiness", trial)
			}
			if got, want := d21b.NonEmpty(0), after.Size21() > 0; got != want {
				t.Fatalf("trial %d: batch and delta disagree on Q2−Q1 emptiness", trial)
			}
		}
	}
}

func randomIDSubset(rng *rand.Rand, all []relation.TupleID, n int) []relation.TupleID {
	perm := rng.Perm(len(all))
	if n > len(all) {
		n = len(all)
	}
	out := make([]relation.TupleID, 0, n)
	for _, i := range perm[:n] {
		out = append(out, all[i])
	}
	return out
}

func complementIDs(all, removed []relation.TupleID) map[relation.TupleID]bool {
	gone := map[relation.TupleID]bool{}
	for _, id := range removed {
		gone[id] = true
	}
	keep := map[relation.TupleID]bool{}
	for _, id := range all {
		if !gone[id] {
			keep[id] = true
		}
	}
	return keep
}
