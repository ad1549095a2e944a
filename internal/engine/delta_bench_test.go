// Delta-incremental evaluation benchmarks: the course-workload sequential
// shrink loop — remove one tuple per step, re-check Q1 − Q2 after every
// removal — evaluated with the retained-state PreparedDiff (one ApplyDelta +
// Commit per step) against per-candidate EvalBatchDiffs re-evaluation (one
// full bitvector engine pass per step; the steps are sequential, so they
// cannot be batched together). This is the acceptance benchmark for the
// delta subsystem (target: ≥5×); timings are exported to BENCH_delta.json
// via the BENCH_DELTA_JSON env var.
package engine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/relation"
)

// shrinkWorkload is the delta benchmark's input: the |D|=5000 course
// instance (the q4-vs-q6 disagreeing pair, both containing difference
// operators, comes from course.Questions) and a fixed pseudo-random
// deletion order.
func shrinkWorkload() (db *relation.Database, order []relation.TupleID) {
	db = course.GenerateDB(5000, 7)
	all := db.AllIDs()
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(len(all))
	order = make([]relation.TupleID, len(all))
	for i, j := range perm {
		order[i] = all[j]
	}
	return db, order
}

type deltaBenchRow struct {
	Steps           int     `json:"steps"`
	PreparedNsPerOp float64 `json:"prepared_ns_per_op"`
	BatchNsPerOp    float64 `json:"batch_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

var deltaBenchRows = map[int]*deltaBenchRow{}

func deltaBenchRowFor(steps int) *deltaBenchRow {
	if r, ok := deltaBenchRows[steps]; ok {
		return r
	}
	r := &deltaBenchRow{Steps: steps}
	deltaBenchRows[steps] = r
	return r
}

var deltaShrinkSteps = []int{64, 256, 1024}

// BenchmarkPreparedDiff times the shrink loop on the retained state: one
// PrepareDiff, then per step one single-tuple ApplyDelta plus Commit.
func BenchmarkPreparedDiff(b *testing.B) {
	db, order := shrinkWorkload()
	q1, q2 := course.Questions()[3].Correct, course.Questions()[5].Correct
	// Equivalence guard before timing: the delta decisions must match a
	// fresh batched evaluation of the same kept set.
	p, err := engine.PrepareDiff(q1, q2, db, nil, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	kept := map[relation.TupleID]bool{}
	for _, id := range db.AllIDs() {
		kept[id] = true
	}
	for i := 0; i < 256; i++ {
		kept[order[i]] = false
		res, err := p.ApplyDelta(order[i:i+1], nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Commit(); err != nil {
			b.Fatal(err)
		}
		if i%32 != 0 {
			continue
		}
		var cand []relation.TupleID
		for id, live := range kept {
			if live {
				cand = append(cand, id)
			}
		}
		sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
		d12, d21, err := engine.EvalBatchDiffs(q1, q2, db, nil, [][]relation.TupleID{cand}, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Disagrees() != (d12.NonEmpty(0) || d21.NonEmpty(0)) {
			b.Fatalf("step %d: delta and batch disagree", i)
		}
	}
	for _, steps := range deltaShrinkSteps {
		row := deltaBenchRowFor(steps)
		b.Run(fmt.Sprintf("shrink/steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := engine.PrepareDiff(q1, q2, db, nil, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					res, err := p.ApplyDelta(order[s:s+1], nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := res.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
			row.PreparedNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
}

// BenchmarkApplyDelta times the bidirectional update path: per step one
// single-tuple update (delete + reinsert with a changed attribute) applied
// through ApplyDelta + Commit on retained state. Because Commit folds
// insertions into the underlying database, each iteration prepares over a
// private clone.
func BenchmarkApplyDelta(b *testing.B) {
	db, order := shrinkWorkload()
	q1, q2 := course.Questions()[3].Correct, course.Questions()[5].Correct
	const steps = 256
	tuples := make([]relation.Tuple, steps)
	rels := make([]string, steps)
	for s := 0; s < steps; s++ {
		rel, t, ok := db.Lookup(order[s])
		if !ok {
			b.Fatalf("workload id %d not in instance", order[s])
		}
		nt := append(relation.Tuple{}, t...)
		if len(nt) > 3 {
			nt[3] = relation.Int(int64(40 + s%61))
		}
		rels[s], tuples[s] = rel, nt
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := engine.PrepareDiff(q1, q2, db.Clone(), nil, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			res, err := p.ApplyDelta(order[s:s+1], []engine.Insert{{Rel: rels[s], Tuple: tuples[s]}})
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvalBatchDiffs times the same shrink loop without retained
// state: every step re-evaluates Q1 − Q2 / Q2 − Q1 on the current kept set
// with one EvalBatchDiffs pass (K = 1; the steps are sequential — step s+1
// depends on step s's answer — so they cannot share a batch).
func BenchmarkEvalBatchDiffs(b *testing.B) {
	db, order := shrinkWorkload()
	q1, q2 := course.Questions()[3].Correct, course.Questions()[5].Correct
	all := db.AllIDs()
	for _, steps := range deltaShrinkSteps {
		row := deltaBenchRowFor(steps)
		b.Run(fmt.Sprintf("shrink/steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gone := make(map[relation.TupleID]bool, steps)
				for s := 0; s < steps; s++ {
					gone[order[s]] = true
					kept := make([]relation.TupleID, 0, len(all)-s-1)
					for _, id := range all {
						if !gone[id] {
							kept = append(kept, id)
						}
					}
					_, _, err := engine.EvalBatchDiffs(q1, q2, db, nil, [][]relation.TupleID{kept}, engine.Options{})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			row.BatchNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if path := os.Getenv("BENCH_DELTA_JSON"); path != "" {
		var rows []deltaBenchRow
		for _, steps := range deltaShrinkSteps {
			r := *deltaBenchRows[steps]
			if r.PreparedNsPerOp > 0 {
				r.Speedup = r.BatchNsPerOp / r.PreparedNsPerOp
			}
			rows = append(rows, r)
		}
		out := map[string]any{
			"workload": "course q4-vs-q6 sequential shrink loop, |D|=5000, one deletion per step",
			"results":  rows,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
