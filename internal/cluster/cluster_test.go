package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

const (
	refQ   = `project[name, major](select[dept = 'CS'](Student join Registration))`
	wrongQ = `project[name, major](Student join Registration)`
)

func courseSpec(size int) server.InstanceSpec {
	return server.InstanceSpec{Kind: "course", Size: size, Seed: 1}
}

// served reports whether a response is a successfully served explanation
// (small course instances make refQ/wrongQ agree, larger ones differ).
func served(code int, status string) bool {
	return code == http.StatusOK && (status == server.StatusOK || status == server.StatusAgree)
}

// syncBuffer is a goroutine-safe bytes.Buffer for audit capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// newWorker spins up one real worker replica over HTTP.
func newWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newFrontend builds a Frontend with test-friendly defaults (health
// checking and hedging off unless the test opts in) and serves it.
func newFrontend(t *testing.T, cfg Config) (*Frontend, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "test"
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

func postJSON(t *testing.T, url string, body any, into any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp
}

// --- ring ---

func TestRingDistributionAndStability(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, r2 := newRing(workers), newRing(workers)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("course:%d:1", i)
		s1, s2 := r1.successors(key), r2.successors(key)
		if len(s1) != 3 {
			t.Fatalf("successors(%q) = %v, want 3 distinct workers", key, s1)
		}
		seen := map[int]bool{}
		for _, w := range s1 {
			if seen[w] {
				t.Fatalf("successors(%q) repeats worker %d: %v", key, w, s1)
			}
			seen[w] = true
		}
		if s1[0] != s2[0] {
			t.Fatalf("owner of %q differs across identical rings: %d vs %d", key, s1[0], s2[0])
		}
		counts[s1[0]]++
	}
	for w, c := range counts {
		// With 64 vnodes each worker should own a healthy share; 10% is a
		// loose floor that only a broken hash would miss.
		if c < 300 {
			t.Fatalf("worker %d owns %d/3000 keys; distribution is badly skewed: %v", w, c, counts)
		}
	}
}

func TestRingSingleWorker(t *testing.T) {
	r := newRing([]string{"http://only:1"})
	if s := r.successors("anything"); len(s) != 1 || s[0] != 0 {
		t.Fatalf("successors = %v, want [0]", s)
	}
}

// --- breaker ---

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 50*time.Millisecond)
	now := time.Now()
	if !b.allow(now) || b.stateName() != "closed" {
		t.Fatal("new breaker must be closed and allowing")
	}
	b.failure(now)
	if !b.allow(now) {
		t.Fatal("one failure under threshold must not open the breaker")
	}
	b.failure(now)
	if b.allow(now) || b.stateName() != "open" {
		t.Fatalf("threshold failures must open the breaker (state %s)", b.stateName())
	}
	// Cooldown elapses: exactly one half-open probe is admitted.
	later := now.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("cooldown elapsed: the half-open probe must be admitted")
	}
	if b.stateName() != "half_open" {
		t.Fatalf("state = %s, want half_open", b.stateName())
	}
	if b.allow(later) {
		t.Fatal("second caller during the half-open probe must be rejected")
	}
	// Probe fails: re-open for another cooldown.
	b.failure(later)
	if b.allow(later.Add(10 * time.Millisecond)) {
		t.Fatal("failed probe must re-open the breaker")
	}
	// Next probe succeeds: closed again.
	again := later.Add(70 * time.Millisecond)
	if !b.allow(again) {
		t.Fatal("second cooldown elapsed: probe must be admitted")
	}
	b.success()
	if b.stateName() != "closed" || !b.allow(again) {
		t.Fatal("successful probe must close the breaker")
	}
}

func TestBreakerReset(t *testing.T) {
	b := newBreaker(1, time.Hour)
	b.failure(time.Now())
	if b.allow(time.Now()) {
		t.Fatal("breaker should be open")
	}
	b.reset()
	if !b.allow(time.Now()) || b.stateName() != "closed" {
		t.Fatal("reset must force-close the breaker")
	}
}

// --- backoff ---

func TestBackoffBoundsAndDeterminism(t *testing.T) {
	b1 := newBackoff(10*time.Millisecond, 80*time.Millisecond, 42)
	b2 := newBackoff(10*time.Millisecond, 80*time.Millisecond, 42)
	ceil := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt := 1; attempt <= len(ceil); attempt++ {
		d1, d2 := b1.delay(attempt), b2.delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, d1, d2)
		}
		if d1 <= 0 || d1 > ceil[attempt-1]*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d1, ceil[attempt-1]*time.Millisecond)
		}
	}
}

// --- config plumbing ---

func TestNormalizeWorkerURL(t *testing.T) {
	cases := map[string]string{
		"localhost:9001":         "http://localhost:9001",
		"http://host:1/":         "http://host:1",
		" https://host:2/ ":      "https://host:2",
		"http://bare.example":    "http://bare.example",
		"10.0.0.7:8080":          "http://10.0.0.7:8080",
		"http://trail.example//": "http://trail.example",
	}
	for in, want := range cases {
		if got := normalizeWorkerURL(in); got != want {
			t.Errorf("normalizeWorkerURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNewRequiresWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no workers must fail")
	}
}

// --- routing ---

// Requests naming the same generated instance must all land on the ring
// owner: that is the cache-affinity property sharding exists for.
func TestRouteAffinity(t *testing.T) {
	w1, ts1 := newWorker(t, server.Config{})
	w2, ts2 := newWorker(t, server.Config{})
	_, fts := newFrontend(t, Config{Workers: []string{ts1.URL, ts2.URL}})

	for i := 0; i < 4; i++ {
		var resp server.ExplainResponse
		r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
			Q1: refQ, Q2: wrongQ, Instance: courseSpec(300),
		}, &resp)
		if !served(r.StatusCode, resp.Status) {
			t.Fatalf("explain via frontend = %d / %q (%s)", r.StatusCode, resp.Status, resp.Error)
		}
		if r.Header.Get(server.HeaderRequestID) == "" {
			t.Fatal("frontend response is missing the request-id header")
		}
	}
	s1, s2 := workerExplainCount(t, ts1.URL), workerExplainCount(t, ts2.URL)
	if s1+s2 != 4 {
		t.Fatalf("workers served %d+%d explains, want 4 total", s1, s2)
	}
	if s1 != 0 && s2 != 0 {
		t.Fatalf("same instance key split across workers (%d vs %d); affinity routing is broken", s1, s2)
	}
	_ = w1
	_ = w2
}

// Inline instances are request-private, so they round-robin instead of
// hashing: both workers must see traffic.
func TestInlineRoundRobin(t *testing.T) {
	_, ts1 := newWorker(t, server.Config{})
	_, ts2 := newWorker(t, server.Config{})
	_, fts := newFrontend(t, Config{Workers: []string{ts1.URL, ts2.URL}})

	data := "relation S(a: int)\n1\n2\n\nrelation T(a: int)\n1\n"
	for i := 0; i < 4; i++ {
		var resp server.ExplainResponse
		r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
			Q1: "S", Q2: "T", Instance: server.InstanceSpec{Kind: "inline", Data: data},
		}, &resp)
		if r.StatusCode != http.StatusOK || resp.Status != server.StatusOK {
			t.Fatalf("inline explain via frontend = %d / %q (%s)", r.StatusCode, resp.Status, resp.Error)
		}
	}
	s1, s2 := workerExplainCount(t, ts1.URL), workerExplainCount(t, ts2.URL)
	if s1 != 2 || s2 != 2 {
		t.Fatalf("inline requests split %d/%d, want 2/2 round-robin", s1, s2)
	}
}

func workerExplainCount(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Requests map[string]int64 `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.Requests["explain"]
}

// --- failover ---

// A dead worker in the set must be invisible to clients: the frontend
// retries the next replica.
func TestFailoverAroundDeadWorker(t *testing.T) {
	_, live := newWorker(t, server.Config{})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // now a conn-refused address

	_, fts := newFrontend(t, Config{
		Workers:     []string{dead.URL, live.URL},
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	})
	for size := 100; size <= 400; size += 100 {
		var resp server.ExplainResponse
		r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
			Q1: refQ, Q2: wrongQ, Instance: courseSpec(size),
		}, &resp)
		if !served(r.StatusCode, resp.Status) {
			t.Fatalf("size %d: explain with a dead replica = %d / %q (%s)", size, r.StatusCode, resp.Status, resp.Error)
		}
	}
}

// A gracefully draining worker refuses with 503/draining; the frontend
// must fail over without punishing its breaker (drain is not a fault).
func TestFailoverAroundDrainingWorker(t *testing.T) {
	w1, ts1 := newWorker(t, server.Config{})
	_, ts2 := newWorker(t, server.Config{})
	f, fts := newFrontend(t, Config{
		Workers:     []string{ts1.URL, ts2.URL},
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	})
	w1.BeginDrain()
	for size := 100; size <= 400; size += 100 {
		var resp server.ExplainResponse
		r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
			Q1: refQ, Q2: wrongQ, Instance: courseSpec(size),
		}, &resp)
		if !served(r.StatusCode, resp.Status) {
			t.Fatalf("size %d: explain with a draining replica = %d / %q (%s)", size, r.StatusCode, resp.Status, resp.Error)
		}
	}
	for _, wk := range f.workers {
		if wk.breaker.stateName() != "closed" {
			t.Fatalf("worker %s breaker = %s; graceful drain must not trip breakers", wk.url, wk.breaker.stateName())
		}
	}
}

// A truncated worker response (connection died mid-body) is a lost answer:
// retried, never forwarded as garbage.
func TestTruncatedResponseRetries(t *testing.T) {
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","counterexa`) // cut mid-field
	}))
	t.Cleanup(truncated.Close)
	_, live := newWorker(t, server.Config{})

	_, fts := newFrontend(t, Config{
		Workers:     []string{truncated.URL, live.URL},
		MaxAttempts: 4,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	})
	for size := 100; size <= 300; size += 100 {
		var resp server.ExplainResponse
		r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
			Q1: refQ, Q2: wrongQ, Instance: courseSpec(size),
		}, &resp)
		if !served(r.StatusCode, resp.Status) {
			t.Fatalf("size %d: explain with a truncating replica = %d / %q (%s)", size, r.StatusCode, resp.Status, resp.Error)
		}
	}
}

// When every attempt fails, the client still gets a structured 503 with
// Retry-After, not a dropped connection.
func TestUnavailableIsStructured(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, fts := newFrontend(t, Config{
		Workers:     []string{dead.URL},
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})
	var resp server.ExplainResponse
	r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: wrongQ, Instance: courseSpec(100),
	}, &resp)
	if r.StatusCode != http.StatusServiceUnavailable || resp.Status != server.StatusUnavailable {
		t.Fatalf("all-dead cluster = %d / %q, want 503 / unavailable", r.StatusCode, resp.Status)
	}
	if r.Header.Get("Retry-After") == "" || resp.RetryAfterS < 1 {
		t.Fatalf("unavailable response must carry Retry-After (header %q, body %d)", r.Header.Get("Retry-After"), resp.RetryAfterS)
	}
}

// A request whose budget dies mid-failover reports budget_exceeded — the
// same structured shape as a worker-side budget expiry.
func TestBudgetExceededDuringFailover(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, fts := newFrontend(t, Config{
		Workers:     []string{dead.URL},
		MaxAttempts: 50,
		BackoffBase: 40 * time.Millisecond,
		BackoffCap:  40 * time.Millisecond,
	})
	var resp server.ExplainResponse
	r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: wrongQ, Instance: courseSpec(100), TimeoutMS: 60,
	}, &resp)
	if r.StatusCode != http.StatusOK || resp.Status != server.StatusBudgetExceeded {
		t.Fatalf("budget death mid-failover = %d / %q (%s), want 200 / budget_exceeded", r.StatusCode, resp.Status, resp.Error)
	}
}

// --- hedging ---

// A stalled first replica must not hold the response hostage: after
// HedgeAfter the frontend races a second replica and the fast answer wins.
func TestHedgedRequestBeatsStraggler(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stalled mid-explain until the test ends
	}))
	t.Cleanup(slow.Close)
	// Registered after slow.Close so it runs first (LIFO): the stalled
	// handler must be released before Close can wait it out.
	t.Cleanup(func() { close(release) })
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"agree","elapsed_ms":1}`)
	}))
	t.Cleanup(fast.Close)

	f, fts := newFrontend(t, Config{
		// Inline (empty-instance) requests round-robin from worker 0, so the
		// first attempt deterministically hits the stalled replica.
		Workers:     []string{slow.URL, fast.URL},
		MaxAttempts: 3,
		HedgeAfter:  20 * time.Millisecond,
	})
	start := time.Now()
	var resp server.ExplainResponse
	r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{Q1: "S", Q2: "S"}, &resp)
	if r.StatusCode != http.StatusOK || resp.Status != server.StatusAgree {
		t.Fatalf("hedged request = %d / %q (%s), want the fast replica's agree", r.StatusCode, resp.Status, resp.Error)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged answer took %v; the straggler was not covered", elapsed)
	}
	if f.hedges.Load() == 0 {
		t.Fatal("no hedge was launched")
	}
}

// --- fairness + lifecycle at the frontend ---

func TestTenantFairnessEnforcedAtFrontend(t *testing.T) {
	_, ts1 := newWorker(t, server.Config{}) // worker runs with no limiter
	_, fts := newFrontend(t, Config{
		Workers:    []string{ts1.URL},
		TenantRate: 0.01, TenantBurst: 1,
	})
	var first server.ExplainResponse
	r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: refQ, Instance: courseSpec(100), Tenant: "alice",
	}, &first)
	if r.StatusCode != http.StatusOK || first.Status != server.StatusAgree {
		t.Fatalf("first request = %d / %q (%s)", r.StatusCode, first.Status, first.Error)
	}
	var second server.ExplainResponse
	r = postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: refQ, Instance: courseSpec(100), Tenant: "alice",
	}, &second)
	if r.StatusCode != http.StatusTooManyRequests || second.Status != server.StatusShed {
		t.Fatalf("over-rate request = %d / %q, want 429 / shed from the frontend", r.StatusCode, second.Status)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}
	// A different tenant is unaffected.
	var other server.ExplainResponse
	r = postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: refQ, Instance: courseSpec(100), Tenant: "bob",
	}, &other)
	if r.StatusCode != http.StatusOK || other.Status != server.StatusAgree {
		t.Fatalf("other tenant = %d / %q (%s); fairness must be per-tenant", r.StatusCode, other.Status, other.Error)
	}
}

func TestFrontendDrain(t *testing.T) {
	_, ts1 := newWorker(t, server.Config{})
	f, fts := newFrontend(t, Config{Workers: []string{ts1.URL}})

	var health map[string]any
	resp, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["state"] != "ready" {
		t.Fatalf("ready healthz = %d / %v", resp.StatusCode, health["state"])
	}

	f.BeginDrain()
	var refused server.ExplainResponse
	r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: refQ, Instance: courseSpec(100),
	}, &refused)
	if r.StatusCode != http.StatusServiceUnavailable || refused.Status != server.StatusDraining {
		t.Fatalf("draining frontend = %d / %q, want 503 / draining", r.StatusCode, refused.Status)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("draining response must carry Retry-After")
	}
	// Readiness fails, liveness still passes.
	resp, err = http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readiness = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(fts.URL + "/healthz?probe=live")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining liveness = %d, want 200", resp.StatusCode)
	}
}

// --- health checking ---

// Consecutive failed readiness probes eject a worker; consecutive
// successes re-admit it with a clean breaker.
func TestHealthEjectionAndReadmission(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","state":"ready"}`)
	}))
	t.Cleanup(flaky.Close)

	f, _ := newFrontend(t, Config{
		Workers:        []string{flaky.URL},
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
	})
	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if f.workers[0].ejected.Load() == want {
				return
			}
			time.Sleep(2 * time.Millisecond) //lint:nakedretry test poll for the health loop's next tick, bounded by the deadline above
		}
		t.Fatalf("worker never became %s", what)
	}
	healthy.Store(false)
	waitFor(true, "ejected")
	if f.ejections.Load() == 0 {
		t.Fatal("ejection counter did not move")
	}
	healthy.Store(true)
	waitFor(false, "re-admitted")
	if f.readmissions.Load() == 0 {
		t.Fatal("readmission counter did not move")
	}
	if f.workers[0].breaker.stateName() != "closed" {
		t.Fatal("re-admission must reset the breaker")
	}
}

// --- headers / audit propagation ---

// The frontend's request id must surface in the worker's audit log with
// the attempt number, and in the response headers.
func TestRequestIDPropagation(t *testing.T) {
	var workerLog syncBuffer
	_, ts1 := newWorker(t, server.Config{AuditWriter: &workerLog})
	var feLog syncBuffer
	_, fts := newFrontend(t, Config{Workers: []string{ts1.URL}, AuditWriter: &feLog})

	var resp server.ExplainResponse
	r := postJSON(t, fts.URL+"/explain", server.ExplainRequest{
		Q1: refQ, Q2: wrongQ, Instance: courseSpec(200),
	}, &resp)
	reqID := r.Header.Get(server.HeaderRequestID)
	if reqID == "" {
		t.Fatal("response is missing the frontend request id")
	}
	if r.Header.Get(server.HeaderAttempt) != "1" {
		t.Fatalf("attempt header = %q, want 1", r.Header.Get(server.HeaderAttempt))
	}

	wes, err := server.ReadAuditLog(bytes.NewReader(workerLog.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(wes) != 1 || wes[0].RequestID != reqID || wes[0].Attempt != 1 {
		t.Fatalf("worker audit entry = %+v, want request id %s attempt 1", wes, reqID)
	}
	if wes[0].Role != "" {
		t.Fatalf("worker entries must not carry the frontend role (got %q)", wes[0].Role)
	}
	fes, err := server.ReadAuditLog(bytes.NewReader(feLog.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != 1 || fes[0].RequestID != reqID || fes[0].Role != server.RoleFrontend {
		t.Fatalf("frontend audit entry = %+v, want role frontend, request id %s", fes, reqID)
	}
	if fes[0].Worker == "" || fes[0].Request == nil {
		t.Fatalf("frontend entry must name the serving worker and carry the request payload: %+v", fes[0])
	}
	if fes[0].Status != wes[0].Status || fes[0].CESize != wes[0].CESize {
		t.Fatalf("frontend outcome (%s/%d) disagrees with worker outcome (%s/%d)",
			fes[0].Status, fes[0].CESize, wes[0].Status, wes[0].CESize)
	}
}

// --- unrouted requests ---

// Clients only ever see the frontend's address, so every path it does not
// serve must answer structured JSON too: an unknown path is a 404, and a
// session path (any method) is a 404 that points at a worker's own address.
func TestUnroutedIsStructuredAtFrontend(t *testing.T) {
	_, ts1 := newWorker(t, server.Config{})
	_, fts := newFrontend(t, Config{Workers: []string{ts1.URL}})
	cases := []struct {
		method, path, mention string
	}{
		{http.MethodPost, "/nope", "/nope"},
		{http.MethodPost, "/session", "worker's own address"},
		{http.MethodPut, "/session/s1", "worker's own address"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, fts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body server.ExplainResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: non-JSON body: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusNotFound || body.Status != server.StatusError || !strings.Contains(body.Error, tc.mention) {
			t.Errorf("%s %s = %d / %q (%s), want 404 / error mentioning %q", tc.method, tc.path, resp.StatusCode, body.Status, body.Error, tc.mention)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
	}
}

// --- adaptive hedging ---

// HedgeAfter 0 (the default) derives the hedge delay from the latency
// EWMA: a tenth of the default budget while cold, then twice the EWMA
// with a 5ms floor; a negative HedgeAfter disables hedging.
func TestAdaptiveHedgeDelay(t *testing.T) {
	frontend := func(hedgeAfter time.Duration) *Frontend {
		f, err := New(Config{
			Workers:        []string{"127.0.0.1:1"},
			DefaultTimeout: 2 * time.Second,
			HedgeAfter:     hedgeAfter,
			HealthInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}

	f := frontend(0)
	if d := f.hedgeDelay(); d != 200*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want DefaultTimeout/10 = 200ms", d)
	}
	// The first served request seeds the EWMA with its own latency.
	if ms := f.Observe(time.Now().Add(-40 * time.Millisecond)); f.Latency() != ms {
		t.Fatalf("EWMA after one %vms sample = %v, want the sample", ms, f.Latency())
	}
	want := time.Duration(2 * f.Latency() * float64(time.Millisecond))
	if d := f.hedgeDelay(); d != want || d < 80*time.Millisecond {
		t.Fatalf("warm hedge delay = %v, want 2× the %vms EWMA", d, f.Latency())
	}

	fast := frontend(0)
	fast.Observe(time.Now().Add(-time.Millisecond))
	if d := fast.hedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("hedge delay behind a ~1ms EWMA = %v, want the 5ms floor", d)
	}

	if d := frontend(-1).hedgeDelay(); d != 0 {
		t.Fatalf("disabled hedge delay = %v, want 0", d)
	}
}
