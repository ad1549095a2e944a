package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/course"
	"repro/internal/faults"
	"repro/internal/server"
)

func withFaults(t *testing.T, seed int64, rules map[faults.Point]faults.Rule) *faults.Plan {
	t.Helper()
	plan := faults.NewPlan(seed, rules)
	faults.Enable(plan)
	t.Cleanup(faults.Disable)
	return plan
}

// TestChaosFailoverStorm is the cluster acceptance test: a 100-request
// storm through a 3-worker frontend under seeded network and worker
// faults — injected connection failures, mid-body stalls, response
// truncation, worker handler panics — plus one worker hard-killed partway
// through. It must hold the PR's acceptance bar:
//
//   - zero non-structured failures: every response is valid JSON with a
//     known status, and every one is a served answer (ok/agree), never an
//     error, 500, or dropped connection;
//   - every request is answered exactly once: 100 responses, 100 distinct
//     frontend-assigned request ids, one frontend audit entry each;
//   - every ok counterexample verifies against a locally generated copy of
//     its instance;
//   - the joined frontend + worker audit logs replay with 0 mismatches.
func TestChaosFailoverStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm is slow; skipped with -short")
	}

	// Note the effective rates: dial fires once per attempt, but body/
	// truncate fire once per body *read*, of which one response makes
	// several — their Every values are deliberately softer.
	plan := withFaults(t, 7, map[faults.Point]faults.Rule{
		// Network faults on the frontend→worker path.
		faults.ClusterDial:     {ErrorEvery: 15},
		faults.ClusterTruncate: {ErrorEvery: 60},
		faults.ClusterBody:     {StallEvery: 10, Stall: 10 * time.Millisecond},
		// Worker-side: handler panics (recovered into 500s, retried by the
		// frontend on another replica).
		faults.Handler: {PanicEvery: 15},
	})

	// Three real workers. Every served answer must be full-fidelity and
	// therefore replayable: MaxConcurrent 8 puts the degradation ladder's
	// clamp at 16 waiting requests, and the frontend, itself limited to 8
	// concurrent requests, cannot send that many.
	highCfg := server.Config{MaxConcurrent: 8}
	var workerLogs [3]syncBuffer
	var workerTS [3]*httptest.Server
	for i := 0; i < 3; i++ {
		cfg := highCfg
		cfg.AuditWriter = &workerLogs[i]
		_, ts := newWorker(t, cfg)
		workerTS[i] = ts
	}

	var feLog syncBuffer
	_, fts := newFrontend(t, Config{
		Workers:       []string{workerTS[0].URL, workerTS[1].URL, workerTS[2].URL},
		MaxAttempts:   8,
		MaxConcurrent: 8,
		BackoffBase:   2 * time.Millisecond,
		BackoffCap:    20 * time.Millisecond,
		// A worker hard-killed mid-storm should drop out of routing after a
		// few failures and stay out: low threshold, storm-long cooldown.
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Second,
		AuditWriter:      &feLog,
		// Hedging off: the storm asserts exact attempt accounting; hedge
		// coverage has its own test.
	})

	const (
		totalRequests = 100
		concurrency   = 6
		killAt        = 40 // hard-kill a worker after this many requests
	)
	sizes := []int{200, 300, 400, 500}

	type outcome struct {
		idx      int
		code     int
		reqID    string
		attempts string
		size     int
		kind     string // "explain-diff", "explain-same", "grade"
		resp     server.GradeResponse
	}
	results := make([]outcome, totalRequests)
	var killOnce sync.Once
	var launched atomic.Int64
	idxCh := make(chan int)
	var wg sync.WaitGroup
	client := &http.Client{}
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				if launched.Add(1) == killAt {
					// Hard-kill: sever every open connection, then shut the
					// listener down in the background (Close waits for
					// in-flight handlers, which the storm must not).
					killOnce.Do(func() {
						workerTS[1].CloseClientConnections()
						go workerTS[1].Close()
					})
				}
				size := sizes[idx%len(sizes)]
				var body any
				var path, kind string
				switch idx % 3 {
				case 0:
					path, kind = "/explain", "explain-diff"
					body = server.ExplainRequest{Q1: refQ, Q2: wrongQ, Instance: courseSpec(size), Tenant: fmt.Sprintf("t%d", idx%5)}
				case 1:
					path, kind = "/explain", "explain-same"
					body = server.ExplainRequest{Q1: refQ, Q2: refQ, Instance: courseSpec(size), Tenant: fmt.Sprintf("t%d", idx%5)}
				default:
					path, kind = "/grade", "grade"
					body = server.GradeRequest{Question: "q1", Q: wrongQ, Instance: courseSpec(size), Tenant: fmt.Sprintf("t%d", idx%5)}
				}
				b, err := json.Marshal(body)
				if err != nil {
					t.Errorf("request %d: marshal: %v", idx, err)
					continue
				}
				resp, err := client.Post(fts.URL+path, "application/json", bytes.NewReader(b))
				if err != nil {
					t.Errorf("request %d: transport-level failure (non-structured!): %v", idx, err)
					continue
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("request %d: reading response (non-structured!): %v", idx, err)
					continue
				}
				o := outcome{
					idx:      idx,
					code:     resp.StatusCode,
					reqID:    resp.Header.Get(server.HeaderRequestID),
					attempts: resp.Header.Get(server.HeaderAttempt),
					size:     size,
					kind:     kind,
				}
				if err := json.Unmarshal(raw, &o.resp); err != nil {
					t.Errorf("request %d: non-JSON response body (non-structured!): %v: %.200s", idx, err, raw)
					continue
				}
				results[idx] = o
			}
		}()
	}
	for i := 0; i < totalRequests; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every request answered exactly once, with a served structured outcome.
	seenIDs := map[string]bool{}
	retried := 0
	var oks []outcome
	for _, o := range results {
		if !served(o.code, o.resp.Status) {
			t.Fatalf("request %d (%s, size %d): %d / %q (%s) — a fault leaked to the client",
				o.idx, o.kind, o.size, o.code, o.resp.Status, o.resp.Error)
		}
		if o.reqID == "" {
			t.Fatalf("request %d: missing frontend request id", o.idx)
		}
		if seenIDs[o.reqID] {
			t.Fatalf("request id %s answered twice", o.reqID)
		}
		seenIDs[o.reqID] = true
		if o.attempts != "1" {
			retried++
		}
		if o.resp.Status == server.StatusOK {
			if o.resp.Counterexample == nil || o.resp.Counterexample.Size == 0 {
				t.Fatalf("request %d: ok without a counterexample", o.idx)
			}
			oks = append(oks, o)
		}
		if o.kind == "grade" && o.resp.Status == server.StatusOK && o.resp.Grade != "fail" {
			t.Fatalf("request %d: wrong query graded %q, want fail", o.idx, o.resp.Grade)
		}
	}
	if len(seenIDs) != totalRequests {
		t.Fatalf("%d distinct request ids for %d requests", len(seenIDs), totalRequests)
	}
	if len(oks) == 0 {
		t.Fatal("storm produced no counterexamples; nothing was really tested")
	}

	// The chaos actually happened: network faults fired and failover ran.
	if plan.Fired(faults.ClusterDial) == 0 || plan.Fired(faults.ClusterTruncate) == 0 {
		t.Fatalf("injected network faults never fired (dial %d, truncate %d)",
			plan.Fired(faults.ClusterDial), plan.Fired(faults.ClusterTruncate))
	}
	if retried == 0 {
		t.Fatal("no request needed a retry; the storm exercised nothing")
	}

	// Never an unverified counterexample, even under chaos: check every ok
	// answer against a locally generated copy of its instance.
	q1 := ratest.MustParseQuery(refQ)
	q2w := ratest.MustParseQuery(wrongQ)
	dbs := map[int]*ratest.Database{}
	for _, o := range oks {
		db, ok := dbs[o.size]
		if !ok {
			db = course.GenerateDB(o.size, 1)
			dbs[o.size] = db
		}
		keep := map[ratest.TupleID]bool{}
		for _, id := range o.resp.Counterexample.IDs {
			keep[ratest.TupleID(id)] = true
		}
		sub := db.Subinstance(keep)
		eq, err := ratest.Equivalent(q1, q2w, sub, nil)
		if err != nil {
			t.Fatalf("verifying storm counterexample: %v", err)
		}
		if eq {
			t.Fatalf("unverified counterexample survived the storm: ids %v agree on the size-%d instance",
				o.resp.Counterexample.IDs, o.size)
		}
	}

	// Frontend audit log: one entry per request, all role=frontend, ids
	// matching what clients saw.
	faults.Disable()
	fes, err := server.ReadAuditLog(bytes.NewReader(feLog.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != totalRequests {
		t.Fatalf("frontend audit log has %d entries, want %d", len(fes), totalRequests)
	}
	for _, e := range fes {
		if e.Role != server.RoleFrontend || !seenIDs[e.RequestID] {
			t.Fatalf("frontend audit entry %+v: bad role or unknown request id", e)
		}
	}

	// The joined frontend + worker logs replay with 0 mismatches: every
	// deterministic frontend outcome is join-verified against a worker
	// entry sharing its request id, and every worker outcome re-executes
	// to the same answer.
	logs := []io.Reader{bytes.NewReader(feLog.bytes())}
	for i := range workerLogs {
		logs = append(logs, bytes.NewReader(workerLogs[i].bytes()))
	}
	replaySrv, err := server.New(highCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := server.ReplayLogs(logs, replaySrv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatched != 0 {
		t.Fatalf("joined replay: %d mismatches: %v", rep.Mismatched, rep.Errors)
	}
	if rep.Joined == 0 {
		t.Fatal("joined replay verified nothing; the frontend/worker join is broken")
	}
	t.Logf("storm: %d served (%d ok, %d retried), faults dial=%d truncate=%d stall=%d panic=%d; replay joined=%d matched=%d skipped=%d",
		totalRequests, len(oks), retried,
		plan.Fired(faults.ClusterDial), plan.Fired(faults.ClusterTruncate),
		plan.Fired(faults.ClusterBody), plan.Fired(faults.Handler),
		rep.Joined, rep.Matched, rep.Skipped)
}
