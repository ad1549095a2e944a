package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/pool"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// Config tunes a Server. The zero value is usable; Normalize fills in the
// defaults below.
type Config struct {
	// PlanCacheSize bounds the LRU cache of parsed query plans, keyed by
	// whitespace-normalized RA text (default 256 entries).
	PlanCacheSize int
	// InstanceCacheSize bounds the LRU cache of generated course/TPC-H
	// instances (default 8; instances dominate the server's memory, so the
	// cap is deliberately small).
	InstanceCacheSize int
	// SessionCacheSize bounds how many live-grading sessions stay resident
	// (default 64). Creating past the cap evicts the least recently used
	// session; its subsequent revisions answer structured 404s.
	SessionCacheSize int
	// MaxConcurrent bounds how many explanations and session operations
	// run at once; further requests queue until a slot frees or their
	// deadline passes. The default is pool.DefaultWorkers, one slot per
	// pool worker: each explanation may itself fan out over the worker
	// pool, so admission keeps the multiplied parallelism bounded instead
	// of oversubscribing the machine. The degradation ladder's thresholds
	// scale off it (see degrade.go).
	MaxConcurrent int
	// DefaultTimeout is the per-request wall-clock budget when the request
	// does not set one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the budget a request may ask for (default 60s).
	MaxTimeout time.Duration
	// MaxInstanceTuples caps the size of any instance the server will
	// generate or accept inline (default 200000 tuples).
	MaxInstanceTuples int

	// TenantRate enables per-tenant token-bucket rate limiting: sustained
	// requests/second per tenant (0 disables). TenantBurst is the bucket
	// capacity (default 1 when rate limiting is on).
	TenantRate  float64
	TenantBurst int

	// AuditPath appends a JSONL audit record per /explain//grade outcome
	// to this file (see audit.go). AuditWriter overrides it with an
	// arbitrary writer (tests); empty/nil disables auditing.
	AuditPath   string
	AuditWriter io.Writer
}

// Normalize fills unset fields with their defaults.
func (c Config) Normalize() Config {
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.InstanceCacheSize == 0 {
		c.InstanceCacheSize = 8
	}
	if c.SessionCacheSize == 0 {
		c.SessionCacheSize = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = pool.DefaultWorkers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxInstanceTuples <= 0 {
		c.MaxInstanceTuples = 200_000
	}
	return c
}

// Server is the long-lived RATest service: it keeps parsed query plans and
// generated instances resident across requests, and its request gate
// bounds concurrent explanations and enforces per-request
// wall-clock/row/conflict budgets. All handler state is either immutable
// after construction or guarded (LRU mutexes, atomics), so one Server
// serves concurrent requests.
type Server struct {
	*Gate
	cfg       Config
	plans     *lru[string, *plannedQuery]
	instances *lru[string, *instance]
	sessions  *lru[string, *session]

	explainReqs atomic.Int64
	gradeReqs   atomic.Int64

	// Live-grading session state (see session.go).
	sessionSeq       atomic.Int64
	sessionReqs      atomic.Int64
	sessionsCreated  atomic.Int64
	sessionsEvicted  atomic.Int64
	sessionsDeleted  atomic.Int64
	sessionsPoisoned atomic.Int64
	sessionsNotFound atomic.Int64
	revIncremental   atomic.Int64
	revReprepare     atomic.Int64
	revFallback      atomic.Int64
}

// New builds a Server from the configuration. It fails only on audit-log
// setup (an unopenable path).
func New(cfg Config) (*Server, error) {
	cfg = cfg.Normalize()
	gate, err := NewGate("", cfg)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		Gate:      gate,
		cfg:       cfg,
		plans:     newLRU[string, *plannedQuery](cfg.PlanCacheSize),
		instances: newLRU[string, *instance](cfg.InstanceCacheSize),
		sessions:  newLRU[string, *session](cfg.SessionCacheSize),
	}
	srv.sessions.onEvict = srv.evictSession
	return srv, nil
}

// Handler returns the server's HTTP routing table, built by its gate (see
// Gate.Mux); the /session routes use Go 1.22 method and wildcard patterns,
// the id being r.PathValue("id").
func (srv *Server) Handler() http.Handler {
	return srv.Mux([]Route{
		{"/explain", "/explain", srv.handleExplain},
		{"/grade", "/grade", srv.handleGrade},
		{"POST /session", "/session", srv.handleSessionCreate},
		{"POST /session/{id}/revise", "/session/revise", srv.handleSessionRevise},
		{"GET /session/{id}", "/session/get", srv.handleSessionGet},
		{"DELETE /session/{id}", "/session/delete", srv.handleSessionDelete},
	}, nil, srv.stats)
}

// Request statuses.
const (
	StatusOK             = "ok"              // counterexample found
	StatusAgree          = "agree"           // queries agree on the instance
	StatusBudgetExceeded = "budget_exceeded" // wall-clock budget ran out
	StatusError          = "error"           // malformed request or failed search
	StatusShed           = "shed"            // 429: overload shed or tenant over rate limit
	StatusDraining       = "draining"        // 503: server is shutting down
	StatusUnavailable    = "unavailable"     // 503: no worker replica could serve (cluster frontend)
	StatusDeleted        = "deleted"         // session released by DELETE /session/{id}
)

// Cluster propagation headers: the frontend assigns a request id and a
// 1-based attempt counter per try; the worker echoes the id and reports
// the degradation level it applied, so the frontend and worker audit logs
// join on the id and the frontend can account degraded answers without
// re-parsing bodies.
const (
	HeaderRequestID = "X-Ratest-Request-Id"
	HeaderAttempt   = "X-Ratest-Attempt"
	HeaderDegraded  = "X-Ratest-Degraded"
)

// requestIDOf reads the frontend-assigned cluster headers off a request.
func requestIDOf(r *http.Request) (string, int) {
	attempt, _ := strconv.Atoi(r.Header.Get(HeaderAttempt))
	return r.Header.Get(HeaderRequestID), attempt
}

// writeClusterHeaders echoes the request id and reports the applied
// degradation level on the response.
func writeClusterHeaders(w http.ResponseWriter, reqID, degraded string) {
	if reqID != "" {
		w.Header().Set(HeaderRequestID, reqID)
	}
	if degraded != "" {
		w.Header().Set(HeaderDegraded, degraded)
	}
}

// ExplainRequest is the body of POST /explain.
type ExplainRequest struct {
	// Q1 is the reference (correct) query, Q2 the query under test, both
	// in the textual RA syntax.
	Q1 string `json:"q1"`
	Q2 string `json:"q2"`
	// Instance names the database instance to explain against.
	Instance InstanceSpec `json:"instance"`
	// Algorithm picks a specific algorithm (ratest.Options.Algorithm);
	// empty means automatic dispatch.
	Algorithm string `json:"algorithm,omitempty"`
	// Params binds @-parameters; values are parsed like instance literals.
	Params map[string]string `json:"params,omitempty"`
	// TimeoutMS is the wall-clock budget in milliseconds (0 = the server
	// default; capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRows tightens the intermediate-row budget for this request.
	MaxRows int `json:"max_rows,omitempty"`
	// MaxConflicts bounds each SAT call's conflicts for this request.
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// NoConstraints drops the instance's integrity constraints (foreign
	// keys stop being enforced on counterexamples).
	NoConstraints bool `json:"no_constraints,omitempty"`
	// ExplainPlan opts into the "plan" response field: what the cost-based
	// join planner decided for each query against this instance.
	ExplainPlan bool `json:"explain_plan,omitempty"`
	// Tenant identifies the requesting tenant for rate limiting and fair
	// queueing (the X-Tenant header is the fallback; empty means the
	// shared anonymous bucket).
	Tenant string `json:"tenant,omitempty"`
}

// PlanJoinJSON is one join of a planned region: the subtree it computes and
// the planner's cardinality estimate. ActualRows is -1: the search pipeline
// evaluates queries many times over many subinstances, so there is no
// single "actual" to report (the experiments CLI's -plan flag measures one).
type PlanJoinJSON struct {
	Expr       string  `json:"expr"`
	EstRows    float64 `json:"est_rows"`
	ActualRows int64   `json:"actual_rows"`
}

// PlanRegionJSON is one join region of a planned query.
type PlanRegionJSON struct {
	Leaves      []string       `json:"leaves,omitempty"`
	Order       string         `json:"order,omitempty"`
	Planned     bool           `json:"planned"`
	Reason      string         `json:"reason,omitempty"`
	Acyclic     bool           `json:"acyclic"`
	SemiJoins   int            `json:"semi_joins"`
	EstPeakRows float64        `json:"est_peak_rows"`
	Joins       []PlanJoinJSON `json:"joins,omitempty"`
}

// PlanJSON is the opt-in /explain "plan" field: the join planner's
// decisions for both queries against the request's instance.
type PlanJSON struct {
	Q1 []PlanRegionJSON `json:"q1,omitempty"`
	Q2 []PlanRegionJSON `json:"q2,omitempty"`
}

// CERelation is one relation of a counterexample, rendered for JSON.
type CERelation struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// CEJSON renders a counterexample.
type CEJSON struct {
	Size      int               `json:"size"`
	Relations []CERelation      `json:"relations"`
	IDs       []int             `json:"ids"`
	Witness   []string          `json:"witness,omitempty"`
	Params    map[string]string `json:"params,omitempty"`
	Rendered  string            `json:"rendered"`
}

// StatsJSON carries the per-request timing breakdown (core.Stats). On a
// budget-exceeded response only Algorithm and SolverStatus ("unknown") are
// meaningful; the timings are the partial elapsed values.
type StatsJSON struct {
	Algorithm    string  `json:"algorithm"`
	TotalMS      float64 `json:"total_ms"`
	RawEvalMS    float64 `json:"raw_eval_ms"`
	ProvEvalMS   float64 `json:"prov_eval_ms"`
	SolverMS     float64 `json:"solver_ms"`
	ModelsTried  int     `json:"models_tried"`
	WitnessSize  int     `json:"witness_size"`
	Optimal      bool    `json:"optimal"`
	SolverStatus string  `json:"solver_status"`
}

// CacheJSON reports which caches a request hit.
type CacheJSON struct {
	PlanQ1   string `json:"plan_q1,omitempty"`
	PlanQ2   string `json:"plan_q2,omitempty"`
	Instance string `json:"instance,omitempty"`
}

// ExplainResponse is the body of a POST /explain response. Budget
// exhaustion is a 200 with Status "budget_exceeded" and partial stats — a
// slow request is a service outcome, not a server failure.
type ExplainResponse struct {
	Status         string     `json:"status"`
	Counterexample *CEJSON    `json:"counterexample,omitempty"`
	Stats          *StatsJSON `json:"stats,omitempty"`
	Cache          *CacheJSON `json:"cache,omitempty"`
	Plan           *PlanJSON  `json:"plan,omitempty"`
	// Degraded names the overload-ladder level applied to this request
	// ("clamped", "solver_free"); empty means a full-fidelity answer.
	Degraded string `json:"degraded,omitempty"`
	// RetryAfterS, when > 0, is mirrored into the Retry-After header (shed
	// and draining responses).
	RetryAfterS int     `json:"retry_after_s,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Error       string  `json:"error,omitempty"`

	// Recovered-panic forensics for the audit log; never serialized to
	// clients.
	panicValue string
	panicStack string
}

// GradeRequest is the body of POST /grade: grade a submitted query against
// one of the course assignment questions (the instance defaults to the
// course workload and must be course or inline kind).
type GradeRequest struct {
	// Question is the course question id (q1..q8).
	Question string `json:"question"`
	// Q is the submitted query in the textual RA syntax.
	Q string `json:"q"`
	// Tenant identifies the requesting student for rate limiting and fair
	// queueing (X-Tenant header is the fallback).
	Tenant string `json:"tenant,omitempty"`
	// Instance defaults to {kind: course, size: 1000, seed: 1}.
	Instance     InstanceSpec      `json:"instance,omitempty"`
	Params       map[string]string `json:"params,omitempty"`
	TimeoutMS    int64             `json:"timeout_ms,omitempty"`
	MaxRows      int               `json:"max_rows,omitempty"`
	MaxConflicts int64             `json:"max_conflicts,omitempty"`
}

// GradeResponse is the body of a POST /grade response. Grade is "pass"
// when the submission agrees with the reference on the instance, "fail"
// when a counterexample demonstrates the difference, and "unknown" when
// the budget ran out before either was established.
type GradeResponse struct {
	ExplainResponse
	Question string `json:"question"`
	Grade    string `json:"grade,omitempty"`
}

// cacheStats is one cache's /stats entry.
type cacheStats struct {
	Len    int   `json:"len"`
	Cap    int   `json:"cap"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func statsFor[K comparable, V any](c *lru[K, V], cap int) cacheStats {
	h, m := c.Counters()
	return cacheStats{Len: c.Len(), Cap: cap, Hits: h, Misses: m}
}

// stats is the server's part of GET /stats; the gate adds uptime, state,
// admission gauges, the latency EWMA and the audit counters.
func (srv *Server) stats() map[string]any {
	return map[string]any{
		"requests": map[string]int64{
			"explain": srv.explainReqs.Load(),
			"grade":   srv.gradeReqs.Load(),
			"session": srv.sessionReqs.Load(),
		},
		"responses":      srv.Counters(StatusOK, StatusAgree, StatusBudgetExceeded, StatusError, StatusShed, StatusDraining),
		"plan_cache":     statsFor(srv.plans, srv.cfg.PlanCacheSize),
		"instance_cache": statsFor(srv.instances, srv.cfg.InstanceCacheSize),
		"sessions": map[string]any{
			"active":    srv.sessions.Len(),
			"cap":       srv.cfg.SessionCacheSize,
			"created":   srv.sessionsCreated.Load(),
			"evicted":   srv.sessionsEvicted.Load(),
			"deleted":   srv.sessionsDeleted.Load(),
			"poisoned":  srv.sessionsPoisoned.Load(),
			"not_found": srv.sessionsNotFound.Load(),
			"revisions": map[string]int64{
				"incremental": srv.revIncremental.Load(),
				"reprepare":   srv.revReprepare.Load(),
				"fallback":    srv.revFallback.Load(),
			},
		},
		"faults": srv.Counters("panics_recovered", "rate_limited"),
	}
}

func (srv *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	srv.explainReqs.Add(1)
	var req ExplainRequest
	if !srv.decode(w, r, &req) {
		return
	}
	tenant := TenantOf(req.Tenant, r.Header.Get("X-Tenant"))
	reqID, attempt := requestIDOf(r)
	status, resp := srv.explain(r.Context(), &req, tenant)
	e := auditOf("/explain", tenant, status, resp)
	e.Request = &req
	e.RequestID, e.Attempt = reqID, attempt
	srv.Audit(e)
	writeClusterHeaders(w, reqID, resp.Degraded)
	writeResponse(w, status, resp.RetryAfterS, resp)
}

func (srv *Server) handleGrade(w http.ResponseWriter, r *http.Request) {
	srv.gradeReqs.Add(1)
	var req GradeRequest
	if !srv.decode(w, r, &req) {
		return
	}
	tenant := TenantOf(req.Tenant, r.Header.Get("X-Tenant"))
	reqID, attempt := requestIDOf(r)
	status, out := srv.grade(r.Context(), &req, tenant)
	e := auditOf("/grade", tenant, status, &out.ExplainResponse)
	e.GradeRequest = &req
	e.Grade = out.Grade
	e.RequestID, e.Attempt = reqID, attempt
	srv.Audit(e)
	writeClusterHeaders(w, reqID, out.Degraded)
	writeResponse(w, status, out.RetryAfterS, out)
}

// grade runs a course-question grading request: resolve the reference
// query and delegate to the explain pipeline.
func (srv *Server) grade(ctx context.Context, req *GradeRequest, tenant string) (int, *GradeResponse) {
	fail := func(err error) (int, *GradeResponse) {
		srv.count(StatusError)
		return http.StatusBadRequest, &GradeResponse{
			ExplainResponse: ExplainResponse{Status: StatusError, Error: err.Error()},
			Question:        req.Question,
		}
	}
	var reference string
	for _, q := range course.Questions() {
		if q.ID == req.Question {
			reference = q.Correct.String()
		}
	}
	if reference == "" {
		return fail(fmt.Errorf("unknown course question %q (want q1..q8)", req.Question))
	}
	inst := req.Instance
	if inst.Kind == "" {
		inst = InstanceSpec{Kind: "course", Size: 1000, Seed: 1}
	}
	if inst.Kind == "tpch" {
		return fail(fmt.Errorf("grading runs on the course schema; instance kind %q does not carry it", inst.Kind))
	}
	status, resp := srv.explain(ctx, &ExplainRequest{
		Q1: reference, Q2: req.Q, Instance: inst, Params: req.Params,
		TimeoutMS: req.TimeoutMS, MaxRows: req.MaxRows, MaxConflicts: req.MaxConflicts,
	}, tenant)
	out := &GradeResponse{ExplainResponse: *resp, Question: req.Question}
	switch resp.Status {
	case StatusOK:
		out.Grade = "fail"
	case StatusAgree:
		out.Grade = "pass"
	case StatusBudgetExceeded:
		out.Grade = "unknown"
	}
	return status, out
}

// auditOf projects a response into an audit entry (request payload and
// grade filled in by the caller).
func auditOf(endpoint, tenant string, status int, resp *ExplainResponse) *AuditEntry {
	e := &AuditEntry{
		Endpoint:   endpoint,
		Tenant:     tenant,
		HTTPStatus: status,
		Status:     resp.Status,
		Degraded:   resp.Degraded,
		Error:      resp.Error,
		Panic:      resp.panicValue,
		Stack:      resp.panicStack,
		ElapsedMS:  resp.ElapsedMS,
	}
	if ce := resp.Counterexample; ce != nil {
		e.CESize = ce.Size
		e.CEIDs = ce.IDs
		e.Witness = ce.Witness
	}
	return e
}

// explain runs the full pipeline for one request: through the gate first
// (drain refusal, tenant rate limit, degradation ladder, fair admission
// under the request's possibly clamped budget), then resolve the instance,
// look up or parse the plans, and run the search. It returns the HTTP
// status plus the response body.
func (srv *Server) explain(ctx context.Context, req *ExplainRequest, tenant string) (int, *ExplainResponse) {
	start := time.Now()
	finish := func(status int, resp *ExplainResponse) (int, *ExplainResponse) {
		resp.ElapsedMS = srv.finish(start, resp.Status)
		return status, resp
	}
	errResp := func(status int, err error) (int, *ExplainResponse) {
		return finish(status, &ExplainResponse{Status: StatusError, Error: err.Error()})
	}

	pass, refused := srv.Enter(ctx, tenant, req.TimeoutMS)
	if refused != nil {
		resp := refused.response()
		if resp.Status == StatusBudgetExceeded {
			resp.Stats = &StatsJSON{SolverStatus: "unknown"}
		}
		return finish(refused.HTTPStatus, resp)
	}
	defer pass.Done()
	ctx = pass.Ctx
	maxConflicts := req.MaxConflicts
	algorithm := req.Algorithm
	degraded := degradeName(pass.level)
	if pass.level >= degradeClamped {
		_, maxConflicts = srv.clampBudgets(0, maxConflicts)
	}
	if pass.level >= degradeSolverFree {
		// Solver-free service: agree-check plus greedy shrink. Still a
		// verified counterexample, just not guaranteed minimal.
		algorithm = "shrinkgreedy"
	}

	inst, instHit, err := srv.resolve(req.Instance)
	if err != nil {
		return errResp(http.StatusBadRequest, err)
	}
	instKey := req.Instance.CacheKey()
	p1, q1Hit, err := srv.plan(req.Q1, inst, instKey)
	if err != nil {
		return errResp(http.StatusBadRequest, fmt.Errorf("parsing q1: %w", err))
	}
	p2, q2Hit, err := srv.plan(req.Q2, inst, instKey)
	if err != nil {
		return errResp(http.StatusBadRequest, fmt.Errorf("parsing q2: %w", err))
	}
	q1, q2 := p1.parsed, p2.parsed
	params := parseParams(req.Params)
	cache := &CacheJSON{PlanQ1: hitMiss(q1Hit), PlanQ2: hitMiss(q2Hit), Instance: hitMiss(instHit)}
	var plan *PlanJSON
	if req.ExplainPlan {
		plan = &PlanJSON{
			Q1: renderPlanRegions(planReportFor(p1, inst.db)),
			Q2: renderPlanRegions(planReportFor(p2, inst.db)),
		}
	}

	opts := &ratest.Options{
		Params:       params,
		Algorithm:    algorithm,
		MaxRows:      req.MaxRows,
		MaxConflicts: maxConflicts,
	}
	if !req.NoConstraints {
		opts.Constraints = inst.constraints
	}
	ce, stats, err := ratest.ExplainContext(ctx, q1, q2, inst.db, opts)
	var pe *pool.PanicError
	switch {
	case err == nil:
		return finish(http.StatusOK, &ExplainResponse{
			Status:         StatusOK,
			Counterexample: renderCE(q1, q2, ce, params),
			Stats:          renderStats(stats, "model"),
			Cache:          cache,
			Plan:           plan,
			Degraded:       degraded,
		})
	case errors.Is(err, core.ErrQueriesAgree):
		return finish(http.StatusOK, &ExplainResponse{Status: StatusAgree, Cache: cache, Plan: plan, Degraded: degraded})
	case errors.As(err, &pe):
		// A worker panicked mid-search (possibly injected). The pool
		// recovered it and ForEach surfaced it as an error; the request
		// fails structurally but the process and its caches stay up.
		srv.panicsRecovered.Add(1)
		return finish(http.StatusInternalServerError, &ExplainResponse{
			Status:     StatusError,
			Cache:      cache,
			Degraded:   degraded,
			Error:      fmt.Sprintf("internal panic (isolated): %v", pe.Value),
			panicValue: fmt.Sprint(pe.Value),
			panicStack: string(pe.Stack),
		})
	case errors.Is(err, core.ErrBudget) || ctx.Err() != nil:
		// Partial stats with an unknown solver status, not a 500: the
		// search was cut off, nothing is known about the problem.
		return finish(http.StatusOK, &ExplainResponse{
			Status: StatusBudgetExceeded, Cache: cache, Plan: plan, Degraded: degraded,
			Stats: &StatsJSON{
				Algorithm:    core.AlgorithmFor(core.Problem{Q1: q1, Q2: q2, DB: inst.db}),
				TotalMS:      msSince(start),
				SolverStatus: "unknown",
			},
			Error: err.Error(),
		})
	default:
		// A well-formed request whose search failed (e.g. the row budget,
		// or an unknown algorithm name): a client error, not a 500.
		return errResp(http.StatusUnprocessableEntity, err)
	}
}

// plannedQuery is a plan-cache entry: the parsed AST and, for cacheable
// (named) instances, the fully planned tree — optimized, join-reordered and
// semi-join reduced against the instance's cardinality statistics — with
// the planner's report. The planned tree and report serve observability
// (the explain_plan field); the search pipeline always starts from the
// parsed AST, because its algorithms rewrite queries structurally
// (selection pushdown per candidate tuple, query mutation) and the engine
// re-plans internally at each evaluation, with the statistics cached on the
// shared instance itself. Inline instances are request-private: their
// entries are keyed by query text alone and stay statistics-free (parsed
// only), since a positional plan computed against one inline instance's
// schema would be wrong for a different instance sharing the query text.
type plannedQuery struct {
	parsed  ra.Node
	planned ra.Node
	report  *engine.PlanReport
}

// plan parses RA text through the plan cache, keyed by whitespace-
// normalized source (formatting variants share an entry) plus the instance
// cache key when the instance is a shareable named one. Entries are
// immutable after construction, so they are shared across concurrent
// requests.
func (srv *Server) plan(src string, inst *instance, instKey string) (*plannedQuery, bool, error) {
	if strings.TrimSpace(src) == "" {
		return nil, false, fmt.Errorf("empty query")
	}
	key := strings.Join(strings.Fields(src), " ")
	if instKey != "" {
		key += "\x00" + instKey
	}
	if e, ok := srv.plans.Get(key); ok {
		return e, true, nil
	}
	q, err := raparser.Parse(src)
	if err != nil {
		return nil, false, err
	}
	e := &plannedQuery{parsed: q}
	if instKey != "" {
		// Planning can only fail with the planner's pre-execution
		// row-budget refusal; the entry then stays parse-only (its report
		// is still kept for explain_plan) and the same structured error
		// surfaces when the search evaluates the query.
		planned, report, perr := engine.ExplainPlan(q, inst.db, engine.Options{})
		e.report = report
		if perr == nil {
			e.planned = planned
		}
	}
	srv.plans.Add(key, e)
	return e, false, nil
}

// planReportFor returns a cache entry's planner report, computing one on
// the fly for request-private (inline) instances.
func planReportFor(e *plannedQuery, db *relation.Database) *engine.PlanReport {
	if e.report != nil {
		return e.report
	}
	_, report, _ := engine.ExplainPlan(e.parsed, db, engine.Options{})
	return report
}

func renderPlanRegions(r *engine.PlanReport) []PlanRegionJSON {
	if r == nil {
		return nil
	}
	out := make([]PlanRegionJSON, 0, len(r.Regions))
	for _, reg := range r.Regions {
		j := PlanRegionJSON{
			Leaves:      reg.Leaves,
			Order:       reg.Order,
			Planned:     reg.Planned,
			Reason:      reg.Reason,
			Acyclic:     reg.Acyclic,
			SemiJoins:   reg.SemiJoins,
			EstPeakRows: reg.EstPeakRows,
		}
		for _, jr := range reg.Joins {
			j.Joins = append(j.Joins, PlanJoinJSON{Expr: jr.Expr, EstRows: jr.EstRows, ActualRows: jr.ActualRows})
		}
		out = append(out, j)
	}
	return out
}

// decode reads a JSON request body into into, answering a wrong method, an
// unreadable or oversized body, or malformed JSON with a structured error.
func (srv *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	start := time.Now()
	body, refused := ReadBody(w, r)
	if refused == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			refused = &Refusal{HTTPStatus: http.StatusBadRequest, Status: StatusError,
				Error: fmt.Sprintf("decoding request body: %v", err)}
		}
	}
	if refused != nil {
		srv.Refuse(w, refused, start)
		return false
	}
	return true
}

func parseParams(raw map[string]string) map[string]relation.Value {
	if len(raw) == 0 {
		return nil
	}
	out := make(map[string]relation.Value, len(raw))
	for k, v := range raw {
		out[k] = relation.ParseValue(v)
	}
	return out
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func renderStats(s *core.Stats, solverStatus string) *StatsJSON {
	if s == nil {
		return nil
	}
	if s.Optimal {
		solverStatus = "optimal"
	}
	return &StatsJSON{
		Algorithm:    s.Algorithm,
		TotalMS:      ms(s.TotalTime),
		RawEvalMS:    ms(s.RawEvalTime),
		ProvEvalMS:   ms(s.ProvEvalTime),
		SolverMS:     ms(s.SolverTime),
		ModelsTried:  s.ModelsTried,
		WitnessSize:  s.WitnessSize,
		Optimal:      s.Optimal,
		SolverStatus: solverStatus,
	}
}

func renderCE(q1, q2 ra.Node, ce *core.Counterexample, params map[string]relation.Value) *CEJSON {
	out := &CEJSON{
		Size:     ce.Size(),
		IDs:      make([]int, len(ce.IDs)),
		Rendered: ratest.FormatCounterexample(q1, q2, ce, params),
	}
	for i, id := range ce.IDs {
		out.IDs[i] = int(id)
	}
	for _, name := range ce.DB.Names() {
		rel := ce.DB.Relation(name)
		if rel.Len() == 0 {
			continue
		}
		cr := CERelation{Name: name}
		for _, a := range rel.Schema.Attrs {
			cr.Columns = append(cr.Columns, a.Name)
		}
		for _, t := range rel.Tuples {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = v.String()
			}
			cr.Rows = append(cr.Rows, row)
		}
		out.Relations = append(out.Relations, cr)
	}
	for _, v := range ce.Witness {
		out.Witness = append(out.Witness, v.String())
	}
	if len(ce.Params) > 0 {
		out.Params = map[string]string{}
		for k, v := range ce.Params {
			out.Params[k] = v.String()
		}
	}
	return out
}
