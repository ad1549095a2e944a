package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/server"
)

// Config tunes a Frontend. Workers is required; the zero value of
// everything else is usable and Normalize fills in the defaults below.
type Config struct {
	// Workers are the worker replica base URLs (host:port is accepted and
	// gets http:// prepended). The set is fixed for the frontend's lifetime.
	Workers []string

	// MaxAttempts bounds the tries (including the first and any hedge) one
	// request may spend across replicas (default 3).
	MaxAttempts int
	// MaxConcurrent bounds proxied requests in flight; further requests
	// queue in the gate's tenant-fair admission queue. The frontend only
	// shuttles bytes, so the default is 4× the worker-side pool
	// parallelism.
	MaxConcurrent int
	// DefaultTimeout / MaxTimeout bound the per-request wall-clock budget
	// exactly like the worker server (defaults 10s / 60s); the frontend
	// enforces them so retries and hedges always fit a known envelope.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// TryTimeout caps a single attempt; 0 means each try may use the whole
	// remaining budget (the worker's own budget machinery then produces a
	// structured budget_exceeded before the HTTP deadline fires, and
	// hedging covers stalled workers). Set it when fast failover matters
	// more than letting slow-but-alive workers finish.
	TryTimeout time.Duration

	// BreakerThreshold consecutive failures open a worker's circuit
	// breaker for BreakerCooldown, after which a single half-open probe
	// decides (defaults 5 and 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Retry pacing: exponential backoff with full jitter from BackoffBase
	// doubling up to BackoffCap (defaults 25ms, 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// HedgeAfter is how long the first attempt may run before a hedged
	// second attempt starts on another replica. 0 derives it from the
	// latency EWMA (2× the typical request); negative disables hedging.
	// A hedge only launches when the remaining budget exceeds twice the
	// delay, so hedging never burns a budget that could not absorb it.
	HedgeAfter time.Duration

	// HealthInterval paces the active health checker (default 500ms;
	// negative disables it). EjectAfter consecutive failed readiness
	// probes eject a worker from routing; ReadmitAfter consecutive
	// successes re-admit it and reset its breaker (defaults 3 and 2).
	HealthInterval time.Duration
	EjectAfter     int
	ReadmitAfter   int

	// TenantRate/TenantBurst enable per-tenant token-bucket rate limiting
	// at the frontend (0 disables). Workers behind a frontend should run
	// with their own limiter off: fairness is enforced exactly once, here,
	// where the whole cluster's traffic is visible.
	TenantRate  float64
	TenantBurst int

	// AuditPath appends a JSONL audit record per proxied outcome;
	// AuditWriter overrides it (tests). Entries carry Role "frontend" and
	// join with worker entries on the request id in -replay.
	AuditPath   string
	AuditWriter io.Writer

	// Seed drives backoff jitter (0 = time-derived). IDPrefix namespaces
	// the frontend-assigned request ids (default derived from the pid).
	Seed     int64
	IDPrefix string
}

// Normalize fills unset fields with their defaults.
func (c Config) Normalize() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * pool.DefaultWorkers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.IDPrefix == "" {
		c.IDPrefix = fmt.Sprintf("fe%d", os.Getpid())
	}
	return c
}

// worker is one replica: its base URL, circuit breaker, and the health
// checker's ejection flag.
type worker struct {
	url     string
	breaker *breaker
	ejected atomic.Bool
}

// Frontend is the stateless routing tier: it holds no instance or plan
// caches, only the routing ring, per-worker breakers and its request gate
// (the same gate a worker server runs: lifecycle, tenant fairness,
// admission, budgets, latency EWMA, audit log). Losing a frontend loses
// nothing but open connections.
type Frontend struct {
	*server.Gate
	cfg     Config
	workers []*worker
	ring    *ring
	rr      atomic.Uint64
	client  *http.Client
	backoff *backoff
	reqSeq  atomic.Uint64

	// Health checker plumbing.
	healthCancel context.CancelFunc
	healthDone   chan struct{}

	// Counters (atomics: /stats reads them while handlers write); the
	// gate keeps the refusal, rate-limit and panic counters.
	explainReqs  atomic.Int64
	gradeReqs    atomic.Int64
	served       atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	failOpen     atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64
}

// New builds a Frontend and starts its health checker. It fails on an
// empty worker set or an unopenable audit path.
func New(cfg Config) (*Frontend, error) {
	cfg = cfg.Normalize()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster frontend needs at least one worker")
	}
	urls := make([]string, len(cfg.Workers))
	for i, u := range cfg.Workers {
		urls[i] = normalizeWorkerURL(u)
	}
	gate, err := server.NewGate(server.RoleFrontend, server.Config{
		MaxConcurrent:  cfg.MaxConcurrent,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		TenantRate:     cfg.TenantRate,
		TenantBurst:    cfg.TenantBurst,
		AuditPath:      cfg.AuditPath,
		AuditWriter:    cfg.AuditWriter,
	})
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		Gate:    gate,
		cfg:     cfg,
		ring:    newRing(urls),
		backoff: newBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.Seed),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
	for _, u := range urls {
		f.workers = append(f.workers, &worker{
			url:     u,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	f.startHealth()
	return f, nil
}

func normalizeWorkerURL(u string) string {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Handler returns the frontend's HTTP routing table, built by its gate
// like the worker's. Sessions are not routed: a session's state lives on
// the one worker that created it, so /session paths answer a structured
// 404 that points clients at a worker's own address.
func (f *Frontend) Handler() http.Handler {
	noSessions := func(w http.ResponseWriter, r *http.Request) {
		f.Refuse(w, &server.Refusal{
			HTTPStatus: http.StatusNotFound,
			Status:     server.StatusError,
			Error:      "sessions are served only at a worker's own address; the frontend routes /explain and /grade",
		}, time.Now())
	}
	return f.Mux([]server.Route{
		{Pattern: "/explain", Endpoint: "/explain", Handler: func(w http.ResponseWriter, r *http.Request) {
			f.explainReqs.Add(1)
			f.proxy(w, r, "/explain")
		}},
		{Pattern: "/grade", Endpoint: "/grade", Handler: func(w http.ResponseWriter, r *http.Request) {
			f.gradeReqs.Add(1)
			f.proxy(w, r, "/grade")
		}},
		{Pattern: "/session", Endpoint: "/session", Handler: noSessions},
		{Pattern: "/session/", Endpoint: "/session", Handler: noSessions},
	}, f.health, f.stats)
}

// proxy is the full frontend request path: the gate (drain, tenant
// fairness, admission under the request budget), routing, resilient
// forwarding, response relay, audit.
func (f *Frontend) proxy(w http.ResponseWriter, r *http.Request, path string) {
	start := time.Now()
	payload, refused := server.ReadBody(w, r)
	if refused != nil {
		f.refuse(w, nil, path, "", "", refused, start)
		return
	}
	// The frontend peeks at just the routing- and fairness-relevant fields;
	// full validation (unknown fields, required fields) is the worker's job
	// so the two tiers cannot disagree about what a valid request is.
	var probe struct {
		Tenant    string              `json:"tenant"`
		TimeoutMS int64               `json:"timeout_ms"`
		Instance  server.InstanceSpec `json:"instance"`
	}
	_ = json.Unmarshal(payload, &probe)
	tenant := server.TenantOf(probe.Tenant, r.Header.Get("X-Tenant"))

	// Tenant fairness is enforced here, exactly once for the whole cluster.
	pass, refused := f.Enter(r.Context(), tenant, probe.TimeoutMS)
	if refused != nil {
		f.refuse(w, payload, path, tenant, "", refused, start)
		return
	}
	defer pass.Done()
	ctx := pass.Ctx

	reqID := fmt.Sprintf("%s-%06d", f.cfg.IDPrefix, f.reqSeq.Add(1))
	order := f.route(path, probe.Instance)
	res, attempts := f.forward(ctx, order, path, payload, tenant, reqID)
	if attempts > 1 {
		f.retries.Add(int64(attempts - 1))
	}

	switch {
	case res.outcome == outcomeFinal:
		f.serve(w, res, path, payload, tenant, reqID, attempts, start)
	case ctx.Err() != nil || !time.Now().Before(deadlineOf(ctx)):
		// The budget ran out mid-failover (its deadline passed, whether or
		// not the context's timer has fired yet): same structured outcome
		// as a worker-side budget expiry, so clients see one shape either
		// way.
		f.refuse(w, payload, path, tenant, reqID, &server.Refusal{
			HTTPStatus: http.StatusOK,
			Status:     server.StatusBudgetExceeded,
			Error:      fmt.Sprintf("request budget elapsed after %d attempt(s): %v", attempts, res.err),
		}, start)
	default:
		detail := "no worker replica available"
		if res.err != nil {
			detail = res.err.Error()
		}
		f.refuse(w, payload, path, tenant, reqID,
			f.Unavailable(fmt.Sprintf("all %d attempt(s) failed; last: %s", attempts, detail)), start)
	}
}

// route returns the candidate worker order for a request: ring successors
// of the instance cache key for shareable instances (cache affinity +
// deterministic failover), round-robin for request-private inline
// instances. The order is extended cyclically so MaxAttempts can exceed
// the replica count — transient faults on a small cluster retry on the
// same worker rather than giving up.
func (f *Frontend) route(path string, spec server.InstanceSpec) []int {
	key := spec.CacheKey()
	if key == "" && path == "/grade" && spec.Kind == "" {
		// grade defaults an empty instance to the course workload; route by
		// the same default so all default-instance grading shares one owner.
		key = (server.InstanceSpec{Kind: "course", Size: 1000, Seed: 1}).CacheKey()
	}
	n := len(f.workers)
	var base []int
	if key != "" {
		base = f.ring.successors(key)
	} else {
		start := int(f.rr.Add(1)-1) % n
		for i := 0; i < n; i++ {
			base = append(base, (start+i)%n)
		}
	}
	order := make([]int, 0, f.cfg.MaxAttempts)
	for i := 0; len(order) < f.cfg.MaxAttempts; i++ {
		order = append(order, base[i%len(base)])
	}
	return order
}

// pick chooses the next candidate from order[*next:]: the first worker
// that is neither health-ejected nor breaker-denied. When every remaining
// candidate is rejected the frontend fails open to the next one in order —
// with the whole cluster marked bad, refusing to try anything would turn a
// partial outage into a total one.
func (f *Frontend) pick(order []int, next *int) int {
	now := time.Now()
	for i := *next; i < len(order); i++ {
		wi := order[i]
		wk := f.workers[wi]
		if wk.ejected.Load() || !wk.breaker.allow(now) {
			continue
		}
		order[i], order[*next] = order[*next], order[i]
		*next++
		return wi
	}
	if *next < len(order) {
		wi := order[*next]
		*next++
		f.failOpen.Add(1)
		return wi
	}
	return -1
}

// forward drives the attempt loop: launch a try, race its result against
// the hedge timer and the request deadline, back off between sequential
// retries, and return the first final result (or the last retryable one
// when attempts/budget run out).
func (f *Frontend) forward(ctx context.Context, order []int, path string, payload []byte, tenant, reqID string) (tryResult, int) {
	deadline, _ := ctx.Deadline()
	resCh := make(chan tryResult, f.cfg.MaxAttempts+1)
	attempts, next, outstanding := 0, 0, 0

	launch := func() bool {
		if attempts >= f.cfg.MaxAttempts {
			return false
		}
		perTry := f.perTry(deadline)
		if perTry <= 0 {
			return false
		}
		wi := f.pick(order, &next)
		if wi < 0 {
			return false
		}
		attempts++
		a := attempts
		pool.Go(func() {
			resCh <- f.try(ctx, wi, path, payload, tenant, reqID, a, perTry)
		}, nil)
		outstanding++
		return true
	}

	if !launch() {
		return tryResult{err: fmt.Errorf("no worker replica admissible")}, attempts
	}

	// Arm the hedge only when the budget could absorb a second pass.
	var hedgeC <-chan time.Time
	if d := f.hedgeDelay(); d > 0 && f.cfg.MaxAttempts > 1 && time.Until(deadline) > 2*d {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var last tryResult
	for {
		select {
		case res := <-resCh:
			outstanding--
			if res.outcome == outcomeFinal {
				return res, attempts
			}
			last = res
			if outstanding > 0 {
				continue // a hedge partner is still running; wait it out
			}
			if ctx.Err() != nil || attempts >= f.cfg.MaxAttempts {
				return last, attempts
			}
			if err := sleep(ctx, f.backoff.delay(attempts)); err != nil {
				return last, attempts
			}
			if !launch() {
				return last, attempts
			}
		case <-hedgeC:
			hedgeC = nil
			if outstanding == 1 && launch() {
				f.hedges.Add(1)
			}
		case <-ctx.Done():
			// Outstanding tries see the same cancellation and drain into the
			// buffered channel; nothing leaks.
			return last, attempts
		}
	}
}

// deadlineOf returns a request context's deadline (every request context
// carries one).
func deadlineOf(ctx context.Context) time.Time {
	d, _ := ctx.Deadline()
	return d
}

// perTry derives one attempt's deadline from the remaining budget,
// optionally capped by TryTimeout.
func (f *Frontend) perTry(deadline time.Time) time.Duration {
	remaining := time.Until(deadline)
	if f.cfg.TryTimeout > 0 && f.cfg.TryTimeout < remaining {
		return f.cfg.TryTimeout
	}
	return remaining
}

// hedgeDelay returns how long the first attempt may run before hedging
// (0 disables). The adaptive default is twice the served-latency EWMA: a
// request beyond 2× typical is a straggler worth covering.
func (f *Frontend) hedgeDelay() time.Duration {
	if f.cfg.HedgeAfter < 0 {
		return 0
	}
	if f.cfg.HedgeAfter > 0 {
		return f.cfg.HedgeAfter
	}
	ewma := f.Latency()
	if ewma <= 0 {
		return f.cfg.DefaultTimeout / 10
	}
	d := time.Duration(2 * ewma * float64(time.Millisecond))
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// serve relays a final worker response to the client and audits it.
func (f *Frontend) serve(w http.ResponseWriter, res tryResult, path string, payload []byte, tenant, reqID string, attempts int, start time.Time) {
	f.served.Add(1)
	elapsed := f.Observe(start)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(server.HeaderRequestID, reqID)
	h.Set(server.HeaderAttempt, strconv.Itoa(attempts))
	if res.degraded != "" {
		h.Set(server.HeaderDegraded, res.degraded)
	}
	if res.retryAfter != "" {
		h.Set("Retry-After", res.retryAfter)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)

	// Project the worker's structured response into the frontend audit
	// entry; its deterministic fields are what -replay join-verifies
	// against the worker's own entry for the same request id.
	var parsed struct {
		Status         string         `json:"status"`
		Grade          string         `json:"grade"`
		Degraded       string         `json:"degraded"`
		Error          string         `json:"error"`
		Counterexample *server.CEJSON `json:"counterexample"`
	}
	_ = json.Unmarshal(res.body, &parsed)
	e := &server.AuditEntry{
		Endpoint:   path,
		Tenant:     tenant,
		RequestID:  reqID,
		Attempt:    attempts,
		Worker:     f.workers[res.worker].url,
		HTTPStatus: res.status,
		Status:     parsed.Status,
		Grade:      parsed.Grade,
		Degraded:   parsed.Degraded,
		Error:      parsed.Error,
		ElapsedMS:  elapsed,
	}
	if ce := parsed.Counterexample; ce != nil {
		e.CESize = ce.Size
		e.CEIDs = ce.IDs
		e.Witness = ce.Witness
	}
	attachRequest(e, path, payload)
	f.Audit(e)
}

// refuse writes a frontend-originated structured response (drain, shed,
// local budget expiry, unavailability, malformed transport) and audits it.
func (f *Frontend) refuse(w http.ResponseWriter, payload []byte, path, tenant, reqID string, ref *server.Refusal, start time.Time) {
	if reqID != "" {
		w.Header().Set(server.HeaderRequestID, reqID)
	}
	elapsed := f.Refuse(w, ref, start)
	e := &server.AuditEntry{
		Endpoint:   path,
		Tenant:     tenant,
		RequestID:  reqID,
		HTTPStatus: ref.HTTPStatus,
		Status:     ref.Status,
		Error:      ref.Error,
		ElapsedMS:  elapsed,
	}
	attachRequest(e, path, payload)
	f.Audit(e)
}

// attachRequest parses the raw payload back into the typed request so the
// frontend's audit entries are self-contained for replay (a frontend log
// alone can still be re-run when the worker logs are lost).
func attachRequest(e *server.AuditEntry, path string, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if path == "/grade" {
		var gr server.GradeRequest
		if json.Unmarshal(payload, &gr) == nil {
			e.GradeRequest = &gr
		}
		return
	}
	var er server.ExplainRequest
	if json.Unmarshal(payload, &er) == nil {
		e.Request = &er
	}
}

// Close stops the health checker and closes the audit log. Call after the
// HTTP listener has shut down.
func (f *Frontend) Close() error {
	if f.healthCancel != nil {
		f.healthCancel()
		<-f.healthDone
	}
	return f.Gate.Close()
}

// health is the frontend's part of GET /healthz: each worker's breaker
// and ejection state.
func (f *Frontend) health() map[string]any {
	var ws []map[string]any
	for _, wk := range f.workers {
		ws = append(ws, map[string]any{
			"url":     wk.url,
			"breaker": wk.breaker.stateName(),
			"ejected": wk.ejected.Load(),
		})
	}
	return map[string]any{"workers": ws}
}

// stats is the frontend's part of GET /stats; the gate adds role, uptime,
// state, admission gauges, the latency EWMA and the audit counters.
func (f *Frontend) stats() map[string]any {
	breakers := map[string]string{}
	ejected := map[string]bool{}
	for _, wk := range f.workers {
		breakers[wk.url] = wk.breaker.stateName()
		ejected[wk.url] = wk.ejected.Load()
	}
	responses := f.Counters(server.StatusUnavailable, server.StatusBudgetExceeded, server.StatusShed, server.StatusDraining)
	responses["served"] = f.served.Load()
	resilience := f.Counters("rate_limited", "panics_recovered")
	resilience["retries"] = f.retries.Load()
	resilience["hedges"] = f.hedges.Load()
	resilience["fail_open_picks"] = f.failOpen.Load()
	resilience["ejections"] = f.ejections.Load()
	resilience["readmissions"] = f.readmissions.Load()
	return map[string]any{
		"requests": map[string]int64{
			"explain": f.explainReqs.Load(),
			"grade":   f.gradeReqs.Load(),
		},
		"responses":  responses,
		"resilience": resilience,
		"breakers":   breakers,
		"ejected":    ejected,
	}
}
