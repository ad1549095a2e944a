package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// maxBodyBytes caps a request body on both tiers (inline instances can be
// large).
const maxBodyBytes = 8 << 20

// Lifecycle states. A gate is born ready; BeginDrain moves it to draining,
// from which it never returns (drain is for process shutdown).
const (
	stateReady int32 = iota
	stateDraining
)

// Gate is the request gate of one serving tier: the worker [Server] and
// the cluster frontend each embed one and keep only their handlers (see
// the package doc). All of its state is atomic or internally locked, so
// one Gate serves concurrent requests.
type Gate struct {
	// role is "" for a worker and RoleFrontend for the cluster frontend;
	// it stamps audit entries and /healthz and /stats bodies, and only a
	// worker runs the degradation ladder and the handler fault point.
	role string
	// cfg holds the gate's limits: MaxConcurrent, DefaultTimeout and
	// MaxTimeout (the worker-only fields are unused).
	cfg       Config
	admission *fairQueue
	limiter   *tenantLimiter
	log       *auditLog
	started   time.Time

	state      atomic.Int32
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// latEWMA holds math.Float64bits of the request-latency EWMA (ms).
	latEWMA atomic.Uint64

	// Counters. Typed atomics: /stats reads them while handlers write, so
	// plain ints would tear under -race (and on 32-bit, in fact).
	okResponses     atomic.Int64
	agreeResponses  atomic.Int64
	budgetExceeded  atomic.Int64
	errorResponses  atomic.Int64
	shedResponses   atomic.Int64
	drainRefused    atomic.Int64
	unavailable     atomic.Int64
	panicsRecovered atomic.Int64
	rateLimited     atomic.Int64
	inFlight        atomic.Int64
	waiting         atomic.Int64
}

// NewGate builds a tier's gate from the limits of a normalized cfg
// (MaxConcurrent, DefaultTimeout, MaxTimeout, TenantRate, TenantBurst,
// AuditPath, AuditWriter). It fails only on audit-log setup (an
// unopenable path).
func NewGate(role string, cfg Config) (*Gate, error) {
	log, err := newAuditLog(cfg.AuditPath, cfg.AuditWriter)
	if err != nil {
		return nil, err
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	return &Gate{
		role:       role,
		cfg:        cfg,
		admission:  newFairQueue(cfg.MaxConcurrent),
		limiter:    newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		log:        log,
		started:    time.Now(),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}, nil
}

// worker reports whether the gate fronts a worker rather than the cluster
// frontend.
func (g *Gate) worker() bool { return g.role != RoleFrontend }

// Refusal is the gate's structured answer to a request that must not run:
// a draining tier (503), a shed or rate-limited tenant (429), a budget
// spent queueing (200 budget_exceeded), or a tier's own early refusals.
type Refusal struct {
	HTTPStatus  int
	Status      string
	Degraded    string
	RetryAfterS int
	Error       string
}

// response renders a refusal as the body both tiers answer it with.
func (r *Refusal) response() *ExplainResponse {
	return &ExplainResponse{Status: r.Status, Degraded: r.Degraded, RetryAfterS: r.RetryAfterS, Error: r.Error}
}

// Pass is a request the gate admitted. Its work runs under Ctx, which
// carries the request's budget and drain's hard cancel; Done gives the
// admission slot back and must be called when the work ends.
type Pass struct {
	Ctx   context.Context
	level int // degradation-ladder level (always none on the frontend)
	done  func()
}

// Done releases the pass's admission slot and budget context.
func (p *Pass) Done() { p.done() }

// Enter takes a request through the gate: a draining tier refuses it, a
// tenant over its rate is shed, and on a worker the degradation ladder
// picks the request's level — shedding it past the last threshold and
// clamping its budget from level 1 up. The budget clock then starts and
// the request queues for a fair admission slot; one whose budget runs out
// in the queue is refused with budget_exceeded. Admission comes before any
// cold-cache work so that such work is charged to the budget and bounded
// by the concurrency limit.
func (g *Gate) Enter(ctx context.Context, tenant string, timeoutMS int64) (*Pass, *Refusal) {
	if g.Draining() {
		return nil, &Refusal{
			HTTPStatus:  http.StatusServiceUnavailable,
			Status:      StatusDraining,
			RetryAfterS: g.retryAfterS(),
			Error:       "draining: no new requests; retry against another replica",
		}
	}
	if ok, wait := g.limiter.Allow(tenant, time.Now()); !ok {
		g.rateLimited.Add(1)
		return nil, &Refusal{
			HTTPStatus:  http.StatusTooManyRequests,
			Status:      StatusShed,
			RetryAfterS: int(wait/time.Second) + 1,
			Error:       fmt.Sprintf("tenant %q is over its request rate; retry later", tenant),
		}
	}
	level := degradeNone
	if g.worker() {
		level = g.degradeLevel()
	}
	if level == degradeShed {
		return nil, &Refusal{
			HTTPStatus:  http.StatusTooManyRequests,
			Status:      StatusShed,
			Degraded:    degradeName(level),
			RetryAfterS: g.retryAfterS(),
			Error:       "server overloaded; request shed",
		}
	}
	budget := g.budget(timeoutMS)
	if level >= degradeClamped {
		budget, _ = g.clampBudgets(budget, 0)
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	// Drain's hard-cancel signal reaches the request through its cancel
	// func: CancelInFlight turns stragglers into budget responses.
	unbind := context.AfterFunc(g.hardCtx, cancel)
	if !g.admit(ctx, tenant) {
		unbind()
		cancel()
		return nil, &Refusal{
			HTTPStatus: http.StatusOK,
			Status:     StatusBudgetExceeded,
			Degraded:   degradeName(level),
			Error:      fmt.Sprintf("request spent its %v budget queued for admission", budget),
		}
	}
	return &Pass{Ctx: ctx, level: level, done: func() {
		g.release()
		unbind()
		cancel()
	}}, nil
}

// budget clamps a requested timeout to the gate's bounds.
func (g *Gate) budget(timeoutMS int64) time.Duration {
	d := g.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > g.cfg.MaxTimeout {
		d = g.cfg.MaxTimeout
	}
	return d
}

// admit blocks until the fair queue grants an execution slot or the
// context expires, reporting whether the request was admitted.
func (g *Gate) admit(ctx context.Context, tenant string) bool {
	g.waiting.Add(1)
	ok := g.admission.Acquire(ctx, tenant)
	g.waiting.Add(-1)
	if ok {
		g.inFlight.Add(1)
	}
	return ok
}

func (g *Gate) release() {
	g.inFlight.Add(-1)
	g.admission.Release()
}

// Unavailable is the frontend's refusal when no worker replica could
// serve a request: 503 with the adaptive Retry-After.
func (g *Gate) Unavailable(msg string) *Refusal {
	return &Refusal{
		HTTPStatus:  http.StatusServiceUnavailable,
		Status:      StatusUnavailable,
		RetryAfterS: g.retryAfterS(),
		Error:       msg,
	}
}

// Refuse writes a refusal — its status code, Retry-After header and
// structured body — counts it, and returns the milliseconds since start
// for the caller's audit entry.
func (g *Gate) Refuse(w http.ResponseWriter, ref *Refusal, start time.Time) float64 {
	resp := ref.response()
	resp.ElapsedMS = msSince(start)
	g.count(ref.Status)
	writeResponse(w, ref.HTTPStatus, ref.RetryAfterS, resp)
	return resp.ElapsedMS
}

// finish closes a worker response's books: it counts the response under
// its status and feeds the latency EWMA with every answer but a refusal —
// shed and draining answers are cheap and would drag the signal down
// right when it matters. It returns the elapsed milliseconds.
func (g *Gate) finish(start time.Time, status string) float64 {
	g.count(status)
	if status == StatusShed || status == StatusDraining {
		return msSince(start)
	}
	return g.Observe(start)
}

// Observe folds a served request's latency since start into the EWMA and
// returns it in milliseconds.
func (g *Gate) Observe(start time.Time) float64 {
	ms := msSince(start)
	g.observeLatency(ms)
	return ms
}

// observeLatency folds one latency sample into the EWMA: the first sample
// seeds it, and after that α = 0.1, so roughly the last ten requests
// dominate.
func (g *Gate) observeLatency(ms float64) {
	for {
		old := g.latEWMA.Load()
		next := ms
		if old != 0 {
			next = 0.9*math.Float64frombits(old) + 0.1*ms
		}
		if g.latEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Latency returns the current latency EWMA in milliseconds (0 before the
// first sample).
func (g *Gate) Latency() float64 {
	return math.Float64frombits(g.latEWMA.Load())
}

// retryAfterS derives Retry-After for 429 shed and 503 draining or
// unavailable responses from live signals instead of a constant: the
// latency EWMA estimates per-request service time and the queue depth says
// how much backlog must drain before a returning client could be admitted
// — queue-ahead × service-time ÷ slots, clamped to [1s, 60s]. Frontend
// backoff and client retry schedules thereby track real recovery time: an
// idle tier says "come right back", a deeply backed-up one pushes clients
// out far enough that their retries don't re-amplify the overload.
func (g *Gate) retryAfterS() int {
	ewma := g.Latency()
	if ewma <= 0 {
		// Cold tier, no latency signal yet: assume a quarter of the
		// default budget per queued request.
		ewma = float64(g.cfg.DefaultTimeout.Milliseconds()) / 4
	}
	waiting := float64(g.waiting.Load())
	s := int(math.Ceil(ewma * (waiting + 1) / float64(g.cfg.MaxConcurrent) / 1000))
	if s < 1 {
		return 1
	}
	if s > 60 {
		return 60
	}
	return s
}

// counter maps a counter name to its atomic: a response status (a
// released session counts as ok, an unlisted status as error),
// "rate_limited" or "panics_recovered".
func (g *Gate) counter(name string) *atomic.Int64 {
	switch name {
	case StatusOK, StatusDeleted:
		return &g.okResponses
	case StatusAgree:
		return &g.agreeResponses
	case StatusBudgetExceeded:
		return &g.budgetExceeded
	case StatusShed:
		return &g.shedResponses
	case StatusDraining:
		return &g.drainRefused
	case StatusUnavailable:
		return &g.unavailable
	case "rate_limited":
		return &g.rateLimited
	case "panics_recovered":
		return &g.panicsRecovered
	}
	return &g.errorResponses
}

func (g *Gate) count(status string) { g.counter(status).Add(1) }

// Counters reads the named counters (see counter) for a tier's /stats.
func (g *Gate) Counters(names ...string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = g.counter(n).Load()
	}
	return out
}

// Audit appends one entry to the tier's audit log, stamped with the
// gate's role.
func (g *Gate) Audit(e *AuditEntry) {
	e.Role = g.role
	g.log.append(e)
}

// StateName reports the lifecycle state for /healthz and /stats.
func (g *Gate) StateName() string {
	if g.Draining() {
		return "draining"
	}
	return "ready"
}

// Draining reports whether the tier has stopped admitting work.
func (g *Gate) Draining() bool { return g.state.Load() == stateDraining }

// BeginDrain stops admitting new requests (they get 503 + Retry-After)
// while in-flight requests keep their budgets and finish normally.
// Readiness probes start failing so load balancers stop routing here. Safe
// to call more than once.
func (g *Gate) BeginDrain() { g.state.Store(stateDraining) }

// CancelInFlight budget-cancels every in-flight request: each one's
// context is canceled, so its work aborts at the next poll and reports a
// structured budget_exceeded response (HTTP 200), exactly like an expired
// per-request budget. The shutdown sequence calls it when the grace window
// is nearly spent so stragglers still produce well-formed responses before
// the listener closes.
func (g *Gate) CancelInFlight() { g.hardCancel() }

// Close flushes and closes the audit log. Call after the HTTP listener has
// shut down; the tier must not take requests afterwards.
func (g *Gate) Close() error { return g.log.Close() }

// Route is one endpoint of a tier's routing table.
type Route struct {
	Pattern  string // http.ServeMux pattern
	Endpoint string // the endpoint's name in audit entries
	Handler  http.HandlerFunc
}

// Mux builds a tier's routing table. Every route, GET /healthz and GET
// /stats run under the panic-isolation wrapper: a panic anywhere in the
// request path becomes a structured 500 with the stack in the audit log,
// and the process — with its caches — stays up. /healthz and /stats carry
// the fields both tiers share plus the tier's own from health and stats
// (either may be nil), and a request no route takes gets a structured 404
// or 405 instead of ServeMux's plain text.
func (g *Gate) Mux(routes []Route, health, stats func() map[string]any) http.Handler {
	mux := http.NewServeMux()
	routes = append(routes,
		Route{"/healthz", "/healthz", g.healthz(health)},
		Route{"/stats", "/stats", g.stats(stats)})
	for _, rt := range routes {
		mux.HandleFunc(rt.Pattern, g.wrap(rt.Endpoint, rt.Handler))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		if pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		// ServeMux's own 404 or 405: keep its status and Allow header,
		// answer in JSON.
		rec := &statusRecorder{header: w.Header(), code: http.StatusNotFound}
		h.ServeHTTP(rec, r)
		msg := fmt.Sprintf("no endpoint at %s", r.URL.Path)
		if rec.code == http.StatusMethodNotAllowed {
			msg = fmt.Sprintf("%s does not take %s (allowed: %s)", r.URL.Path, r.Method, w.Header().Get("Allow"))
		}
		writeJSON(w, rec.code, &ExplainResponse{Status: StatusError, Error: msg})
	})
}

// statusRecorder keeps the status code a handler writes and drops its
// body.
type statusRecorder struct {
	header http.Header
	code   int
}

func (s *statusRecorder) Header() http.Header         { return s.header }
func (s *statusRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (s *statusRecorder) WriteHeader(code int)        { s.code = code }

// wrap is the per-request panic-isolation boundary for everything the
// handler goroutine runs directly (the pool recovers its own workers and
// surfaces their panics as *pool.PanicError returns instead).
func (g *Gate) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				g.panicsRecovered.Add(1)
				g.Audit(&AuditEntry{
					Endpoint:   endpoint,
					HTTPStatus: http.StatusInternalServerError,
					Status:     StatusError,
					Error:      "panic recovered in handler",
					Panic:      fmt.Sprint(rec),
					Stack:      string(debug.Stack()),
				})
				g.Refuse(w, &Refusal{
					HTTPStatus: http.StatusInternalServerError,
					Status:     StatusError,
					Error:      fmt.Sprintf("internal error (recovered): %v", rec),
				}, start)
			}
		}()
		// The chaos suites' handler fault point fires on workers only: the
		// cluster storm arms it for the whole process, in-process workers
		// included, and a frontend that fired it too would change what that
		// suite measures.
		if g.worker() {
			faults.Inject(faults.Handler)
		}
		h(w, r)
	}
}

// fields starts a /healthz or /stats body: the tier's own fields, its role
// (frontend only), uptime and lifecycle state.
func (g *Gate) fields(own func() map[string]any) map[string]any {
	body := map[string]any{}
	if own != nil {
		body = own()
	}
	if g.role != "" {
		body["role"] = g.role
	}
	body["uptime_s"] = time.Since(g.started).Seconds()
	body["state"] = g.StateName()
	return body
}

// healthz distinguishes liveness from readiness:
//
//	GET /healthz?probe=live  → 200 while the process runs (even draining)
//	GET /healthz (or ?probe=ready) → 200 ready, 503 once draining
//
// The body always carries the lifecycle state.
func (g *Gate) healthz(own func() map[string]any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := g.fields(own)
		body["status"] = "ok"
		code := http.StatusOK
		if g.Draining() {
			body["status"] = "draining"
			if r.URL.Query().Get("probe") != "live" {
				code = http.StatusServiceUnavailable
			}
		}
		writeJSON(w, code, body)
	}
}

// stats answers GET /stats with the admission gauges, the latency EWMA and
// the audit-log counters next to the tier's own fields.
func (g *Gate) stats(own func() map[string]any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := g.fields(own)
		entries, dropped := g.log.counters()
		body["admission"] = map[string]int64{
			"limit":     int64(g.cfg.MaxConcurrent),
			"in_flight": g.inFlight.Load(),
			"waiting":   g.waiting.Load(),
		}
		body["latency_ewma_ms"] = g.Latency()
		body["audit"] = map[string]int64{"entries": entries, "dropped": dropped}
		writeJSON(w, http.StatusOK, body)
	}
}

// ReadBody reads a POST request's body, capped at 8 MiB. A wrong method
// (405) or an unreadable or oversized body (400) comes back as the refusal
// to answer instead.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, *Refusal) {
	if r.Method != http.MethodPost {
		return nil, &Refusal{HTTPStatus: http.StatusMethodNotAllowed, Status: StatusError,
			Error: fmt.Sprintf("%s requires POST", r.URL.Path)}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, &Refusal{HTTPStatus: http.StatusBadRequest, Status: StatusError,
			Error: fmt.Sprintf("reading request body: %v", err)}
	}
	return body, nil
}

// writeResponse mirrors a response's retry_after_s into the Retry-After
// header (shed, draining, unavailable) before writing the JSON body.
func writeResponse(w http.ResponseWriter, status, retryAfterS int, body any) {
	if retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }
