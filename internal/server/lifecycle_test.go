package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// withFaults enables a fault plan for the test and disables injection on
// cleanup. Fault-injection state is process-global, so these tests must
// not run in parallel with each other.
func withFaults(t *testing.T, seed int64, rules map[faults.Point]faults.Rule) *faults.Plan {
	t.Helper()
	plan := faults.NewPlan(seed, rules)
	faults.Enable(plan)
	t.Cleanup(faults.Disable)
	return plan
}

func TestHealthzProbes(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	var body map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("ready healthz = %d, want 200", code)
	}
	if body["state"] != "ready" {
		t.Fatalf("state = %v, want ready", body["state"])
	}

	srv.BeginDrain()
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readiness probe = %d, want 503", code)
	}
	if body["state"] != "draining" || body["status"] != "draining" {
		t.Fatalf("draining body = %v", body)
	}
	// Liveness stays green while draining: the process is healthy, it just
	// refuses new work.
	if code := getJSON(t, ts.URL+"/healthz?probe=live", &body); code != http.StatusOK {
		t.Fatalf("draining liveness probe = %d, want 200", code)
	}
}

// A draining server refuses new explain/grade requests with a structured
// 503 + Retry-After and counts them, without touching the search pipeline.
func TestDrainRefusesNewRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.BeginDrain()

	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", ExplainRequest{
		Q1: refQ, Q2: wrongQ, Instance: courseSpec(300),
	}, &resp)
	if code != http.StatusServiceUnavailable || resp.Status != StatusDraining {
		t.Fatalf("drained explain = %d / %q, want 503 / draining", code, resp.Status)
	}
	if resp.RetryAfterS <= 0 {
		t.Fatalf("draining response carries no retry_after_s: %+v", resp)
	}
	if n := srv.drainRefused.Load(); n != 1 {
		t.Fatalf("drainRefused = %d, want 1", n)
	}
}

// The Retry-After header must mirror retry_after_s on refusals.
func TestDrainSetsRetryAfterHeader(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.BeginDrain()
	resp, err := http.Post(ts.URL+"/explain", "application/json",
		jsonBody(t, ExplainRequest{Q1: refQ, Q2: refQ, Instance: courseSpec(300)}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header on a draining refusal")
	}
}

// Retry-After is adaptive, not a constant: it scales with the latency
// EWMA and the queue depth (queue-ahead x service-time / slots), clamped
// to [1s, 60s], so a backed-up server pushes clients out far enough that
// their retries don't re-amplify the overload.
func TestAdaptiveRetryAfter(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 2, DefaultTimeout: 10 * time.Second})

	// Cold server, empty queue: no latency signal yet, so a quarter of the
	// default budget (2.5s) stands in per request -> ceil(2.5/2) = 2s.
	if got := srv.retryAfterS(); got != 2 {
		t.Fatalf("cold retryAfterS = %d, want 2", got)
	}

	// Fast requests, empty queue: "come right back" (the 1s floor).
	for i := 0; i < 100; i++ {
		srv.observeLatency(100)
	}
	if got := srv.retryAfterS(); got != 1 {
		t.Fatalf("fast+idle retryAfterS = %d, want 1", got)
	}

	// Same latency, deep queue: 100 queued ahead at ~100ms each over 2
	// slots -> ceil(100 * 101 / 2 / 1000) = 6s. The backlog alone moved it.
	srv.waiting.Store(100)
	if got := srv.retryAfterS(); got != 6 {
		t.Fatalf("fast+backlog retryAfterS = %d, want 6", got)
	}

	// Slow requests and a deep queue: clamped at the 60s ceiling rather
	// than quoting minutes.
	for i := 0; i < 200; i++ {
		srv.observeLatency(10_000)
	}
	if got := srv.retryAfterS(); got != 60 {
		t.Fatalf("slow+backlog retryAfterS = %d, want 60", got)
	}
	srv.waiting.Store(0)

	// The live value is what refusals quote: a draining server's 503
	// carries the adaptive number, header and body agreeing.
	srv2, ts := newTestServer(t, Config{MaxConcurrent: 2})
	for i := 0; i < 100; i++ {
		srv2.observeLatency(4_000) // ~4s per request observed
	}
	srv2.BeginDrain()
	resp, err := http.Post(ts.URL+"/explain", "application/json",
		jsonBody(t, ExplainRequest{Q1: refQ, Q2: refQ, Instance: courseSpec(300)}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := srv2.retryAfterS()
	if body.RetryAfterS != want {
		t.Fatalf("draining retry_after_s = %d, want the adaptive %d", body.RetryAfterS, want)
	}
	if h := resp.Header.Get("Retry-After"); h != fmt.Sprint(want) {
		t.Fatalf("Retry-After header = %q, want %d", h, want)
	}
	if want < 2 {
		t.Fatalf("adaptive Retry-After = %d under 4s-latency load; the signal is not being used", want)
	}
}

// CancelInFlight during a slow request must budget-cancel it: the request
// returns a structured 200 budget_exceeded, not a hang or a dropped
// connection. The stall fault keeps the request in the engine long enough
// for the drain to land (SIGTERM during solver-heavy explain, in effect).
func TestDrainCancelsInFlight(t *testing.T) {
	withFaults(t, 1, map[faults.Point]faults.Rule{
		faults.EngineEval: {StallEvery: 1, Stall: 100 * time.Millisecond},
	})
	srv, ts := newTestServer(t, Config{})

	type result struct {
		code int
		resp ExplainResponse
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.code = postJSON(t, ts.URL+"/explain", ExplainRequest{
			Q1: refQ, Q2: wrongQ, Instance: courseSpec(500), TimeoutMS: 30_000,
		}, &r.resp)
		done <- r
	}()

	// Let the request reach the engine, then drain hard.
	time.Sleep(50 * time.Millisecond)
	srv.BeginDrain()
	srv.CancelInFlight()

	select {
	case r := <-done:
		if r.code != http.StatusOK || r.resp.Status != StatusBudgetExceeded {
			t.Fatalf("cancelled in-flight request = %d / %q (%s), want 200 / budget_exceeded",
				r.code, r.resp.Status, r.resp.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not finish after CancelInFlight")
	}
}

// A recovered panic must leave the process and its caches fully serviceable:
// the same request succeeds right after, still hitting the warmed caches.
func TestCachesSurviveRecoveredPanic(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := ExplainRequest{Q1: refQ, Q2: wrongQ, Instance: courseSpec(500)}

	// Warm the caches.
	var warm ExplainResponse
	if code := postJSON(t, ts.URL+"/explain", req, &warm); code != http.StatusOK || warm.Status != StatusOK {
		t.Fatalf("warm-up = %d / %q (%s)", code, warm.Status, warm.Error)
	}

	// Panic on every engine evaluation: the request must fail structurally.
	withFaults(t, 1, map[faults.Point]faults.Rule{
		faults.EngineEval: {PanicEvery: 1},
	})
	var boom ExplainResponse
	if code := postJSON(t, ts.URL+"/explain", req, &boom); code != http.StatusInternalServerError || boom.Status != StatusError {
		t.Fatalf("injected panic = %d / %q (%s), want 500 / error", code, boom.Status, boom.Error)
	}
	if n := srv.panicsRecovered.Load(); n == 0 {
		t.Fatal("panicsRecovered counter did not move")
	}
	faults.Disable()

	// The process survived with its caches intact: the same request succeeds
	// and reports cache hits for both the plans and the instance.
	var after ExplainResponse
	if code := postJSON(t, ts.URL+"/explain", req, &after); code != http.StatusOK || after.Status != StatusOK {
		t.Fatalf("post-panic request = %d / %q (%s), want 200 / ok", code, after.Status, after.Error)
	}
	if after.Cache == nil || after.Cache.Instance != "hit" || after.Cache.PlanQ1 != "hit" {
		t.Fatalf("caches did not survive the panic: %+v", after.Cache)
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", code)
	}
}

// The ladder levels follow the queue-depth thresholds and the latency EWMA.
func TestDegradeLevels(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 2}) // thresholds 4 / 8 / 16
	set := func(waiting int64) int {
		srv.waiting.Store(waiting)
		return srv.degradeLevel()
	}
	if lvl := set(0); lvl != degradeNone {
		t.Fatalf("idle level = %d, want none", lvl)
	}
	if lvl := set(4); lvl != degradeClamped {
		t.Fatalf("level at clamp threshold = %d, want clamped", lvl)
	}
	if lvl := set(8); lvl != degradeSolverFree {
		t.Fatalf("level at solver-free threshold = %d, want solver_free", lvl)
	}
	if lvl := set(16); lvl != degradeShed {
		t.Fatalf("level at shed threshold = %d, want shed", lvl)
	}
	// Latency alone (queue empty) triggers clamping once the EWMA passes
	// 3/4 of the default budget.
	srv.waiting.Store(0)
	for i := 0; i < 100; i++ {
		srv.observeLatency(float64(srv.cfg.DefaultTimeout.Milliseconds()))
	}
	if lvl := srv.degradeLevel(); lvl != degradeClamped {
		t.Fatalf("latency-driven level = %d, want clamped", lvl)
	}
}

func TestClampBudgets(t *testing.T) {
	srv := mustNew(t, Config{DefaultTimeout: 8 * time.Second}) // degraded: 2s / 20000
	b, c := srv.clampBudgets(8*time.Second, 0)
	if b != 2*time.Second || c != 20_000 {
		t.Fatalf("clamp(8s, 0) = %v, %d", b, c)
	}
	b, c = srv.clampBudgets(time.Second, 500)
	if b != time.Second || c != 500 {
		t.Fatalf("clamp(1s, 500) = %v, %d (tighter-than-clamp values must pass through)", b, c)
	}
}

// At the solver-free level the request still gets a verified counterexample
// (greedy shrink), labelled as degraded.
func TestDegradedSolverFree(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 1}) // thresholds 2 / 4 / 8
	srv.waiting.Store(4)
	code, resp := srv.explain(context.Background(), &ExplainRequest{
		Q1: refQ, Q2: wrongQ, Instance: courseSpec(500),
	}, "t")
	if code != http.StatusOK || resp.Status != StatusOK {
		t.Fatalf("degraded explain = %d / %q (%s), want 200 / ok", code, resp.Status, resp.Error)
	}
	if resp.Degraded != "solver_free" {
		t.Fatalf("degraded = %q, want solver_free", resp.Degraded)
	}
	if resp.Stats == nil || resp.Stats.Algorithm != "ShrinkGreedy" {
		t.Fatalf("stats = %+v, want the ShrinkGreedy algorithm", resp.Stats)
	}
	if resp.Counterexample == nil || resp.Counterexample.Size == 0 {
		t.Fatal("no counterexample from the solver-free path")
	}
}

// Past the shed threshold requests get a structured 429.
func TestDegradedShed(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrent: 1}) // thresholds 2 / 4 / 8
	srv.waiting.Store(8)
	code, resp := srv.explain(context.Background(), &ExplainRequest{
		Q1: refQ, Q2: refQ, Instance: courseSpec(300),
	}, "t")
	if code != http.StatusTooManyRequests || resp.Status != StatusShed {
		t.Fatalf("shed explain = %d / %q, want 429 / shed", code, resp.Status)
	}
	if resp.RetryAfterS <= 0 {
		t.Fatal("shed response carries no retry_after_s")
	}
	if n := srv.shedResponses.Load(); n != 1 {
		t.Fatalf("shedResponses = %d, want 1", n)
	}
}

// The per-tenant token bucket throttles one tenant without touching others.
func TestTenantRateLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{TenantRate: 0.01, TenantBurst: 1})
	post := func(tenant string) (int, string, ExplainResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/explain",
			jsonBody(t, ExplainRequest{Q1: refQ, Q2: refQ, Instance: courseSpec(300)}))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body ExplainResponse
		decodeBody(t, resp, &body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), body
	}

	if code, _, body := post("alice"); code != http.StatusOK {
		t.Fatalf("alice #1 = %d (%s), want 200", code, body.Error)
	}
	code, retry, body := post("alice")
	if code != http.StatusTooManyRequests || body.Status != StatusShed {
		t.Fatalf("alice #2 = %d / %q, want 429 / shed", code, body.Status)
	}
	if retry == "" || body.RetryAfterS <= 0 {
		t.Fatalf("rate-limited response has no Retry-After (header %q, body %d)", retry, body.RetryAfterS)
	}
	// A different tenant has its own bucket.
	if code, _, b := post("bob"); code != http.StatusOK {
		t.Fatalf("bob = %d (%s), want 200", code, b.Error)
	}
	if n := srv.rateLimited.Load(); n != 1 {
		t.Fatalf("rateLimited = %d, want 1", n)
	}
}

// Freed slots rotate round-robin across tenants with queued waiters, so a
// tenant with a deep queue cannot starve the others.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue(1)
	if !q.Acquire(context.Background(), "main") {
		t.Fatal("initial acquire failed")
	}

	order := make(chan string, 3)
	var wg sync.WaitGroup
	queued := 0
	start := func(label, tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if q.Acquire(context.Background(), tenant) {
				order <- label
				q.Release()
			}
		}()
		// Wait until the waiter is actually queued so the enqueue order —
		// and therefore the expected grant order — is deterministic.
		queued++
		for {
			q.mu.Lock()
			var n int
			for _, ws := range q.queues {
				n += len(ws)
			}
			q.mu.Unlock()
			if n >= queued {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	start("a1", "a")
	start("a2", "a")
	start("b1", "b")

	q.Release() // main's slot: a1 → (a1 releases) b1 → (b1 releases) a2
	wg.Wait()
	close(order)
	var got []string
	for l := range order {
		got = append(got, l)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v (round-robin across tenants)", got, want)
		}
	}
}

// A waiter whose context dies while queued must be skipped by the grant
// path, not granted a slot nobody will release.
func TestFairQueueCanceledWaiter(t *testing.T) {
	q := newFairQueue(1)
	if !q.Acquire(context.Background(), "a") {
		t.Fatal("initial acquire failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- q.Acquire(ctx, "b") }()
	for {
		q.mu.Lock()
		n := len(q.queues["b"])
		q.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if ok := <-done; ok {
		t.Fatal("canceled waiter was admitted")
	}
	q.Release()
	// The slot must be free again despite the dead waiter in the queue.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if !q.Acquire(ctx2, "c") {
		t.Fatal("slot lost to a canceled waiter")
	}
	q.Release()
}

// The latency EWMA starts from its first sample (a zero start would read
// a tenth of it) and then moves with α = 0.1.
func TestLatencyEWMASeededByFirstSample(t *testing.T) {
	srv := mustNew(t, Config{})
	if got := srv.Latency(); got != 0 {
		t.Fatalf("cold EWMA = %v, want 0", got)
	}
	srv.observeLatency(100)
	if got := srv.Latency(); got != 100 {
		t.Fatalf("EWMA after one 100ms sample = %v, want 100", got)
	}
	srv.observeLatency(200)
	if got := srv.Latency(); got != 110 {
		t.Fatalf("EWMA after 100ms then 200ms = %v, want 110", got)
	}
}
