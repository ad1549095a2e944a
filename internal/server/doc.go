// Package server is the long-lived HTTP serving layer over Explain — the
// resident deployment of the paper's RATest web service (Section 6), which
// students hit repeatedly during a course. Where the CLI re-parses queries
// and regenerates instances on every invocation, a [Server] amortizes that
// work across requests.
//
// # Endpoints
//
//   - POST /explain — find a smallest counterexample for a (q1, q2,
//     instance) triple; see [ExplainRequest] / [ExplainResponse].
//   - POST /grade — grade a submitted query against a course assignment
//     question: "pass" when it agrees with the reference on the instance,
//     "fail" with a counterexample otherwise; see [GradeRequest].
//   - POST /session, POST /session/{id}/revise, GET/DELETE /session/{id}
//     — stateful live-grading sessions: create prepares a resident
//     [core.LiveSession] (incremental state over a private instance
//     clone), revise applies instance updates or a replacement candidate
//     query and re-grades along the incremental / reprepare / fallback
//     path; see [SessionCreateRequest] / [SessionReviseRequest] /
//     [SessionResponse] and the "Sessions" section below.
//   - GET /healthz — liveness (?probe=live) and readiness probes;
//     readiness fails once the server is draining.
//   - GET /stats — request counters, cache sizes and hit rates, admission
//     gauges, recovered-panic and shed counts, session and revision-path
//     counters, the latency EWMA.
//
// A path or method no endpoint serves answers a structured 404 or 405
// (status "error") like every other failure.
//
// # The request gate
//
// Everything a request passes through before and after its work lives in
// one [Gate], which the [Server] embeds and the cluster frontend
// (internal/cluster) embeds too, so both tiers share one implementation:
// the panic-isolation wrapper, the ready → draining lifecycle and its hard
// cancel, the budget clamp, the per-tenant rate limit and fair admission
// with their gauges, the latency EWMA and adaptive Retry-After, the audit
// log, the response counters, and the fields /healthz and /stats share.
// /explain, /grade, POST /session and session revisions enter through one
// [Gate.Enter] call; the worker additionally runs the degradation ladder
// there, which the frontend does not.
//
// # Caching
//
// Two LRU caches persist across requests. The plan cache maps
// (whitespace-normalized RA text, instance cache key) to the parsed query
// plus its fully planned form — optimized, join-reordered and semi-join
// reduced by the engine's cost-based planner against the instance's
// cardinality statistics — and the planner's report, surfaced by the
// opt-in explain_plan request field. Entries are immutable after
// construction, so concurrent requests share cached nodes without copying.
// Queries against inline (request-private) instances get parse-only,
// statistics-free entries keyed by query text alone: a positional plan
// computed against one inline instance would be wrong for another sharing
// the query text. The instance cache maps generated instance specs
// ("course:size:seed", "tpch:sf:seed") to their databases; generation is
// deterministic in the spec and evaluation never mutates a database, so
// instances are shared the same way — including the cardinality statistics
// the engine caches on each database, which therefore follow the
// instance's LRU lifetime. Inline instances are request-private and never
// cached. Invariant: cache hits change cost only, never answers — eviction
// is always safe.
//
// # Budgets and admission
//
// Every request runs under a wall-clock budget (request timeout_ms,
// clamped to the server maximum) threaded as a context through
// ratest.ExplainContext into the core search loops and solvers, plus
// optional per-request row and SAT-conflict caps. Budget exhaustion is a
// 200 response with status "budget_exceeded" and partial stats (solver
// status "unknown") — a slow request is a service outcome, not a server
// failure. An admission semaphore bounds concurrent explanations so that
// request-level concurrency multiplied by the engine's worker-pool
// parallelism cannot oversubscribe the machine; the budget clock covers
// queueing, so a request that spends its budget waiting is refused rather
// than run late. Admission is fair-queued per tenant (round-robin across
// tenants with waiters) with optional per-tenant token-bucket rate limits
// in front; both belong to the gate.
//
// # Sessions
//
// Sessions are the one deliberately stateful part of the server. Each
// holds a [core.LiveSession] — retained incremental evaluation state over
// a private clone of its instance (committed insertions mutate it, so
// sessions never share databases with the instance cache) — behind a
// per-session mutex; concurrent revisions to one session serialize.
// Sessions live in their own LRU ([Config].SessionCacheSize): creating
// past the cap evicts the least recently used session, and an evicted,
// deleted, or poisoned session answers structured 404s — the client
// contract is "recreate and replay your edits". Creation and revision
// enter through the same gate as /explain. A session lives on the worker
// that created it: clients address that worker directly, and the cluster
// frontend answers /session paths with a structured 404. A panic
// mid-revision fail-stops that session (it is removed and counted in
// stats) rather than leaving half-mutated state resident. Audit entries carry the session id and payloads; Replay
// re-runs each session's create/revise stream in log order, cutting the
// stream off at the first non-replayable entry instead of reporting
// false mismatches.
//
// # Fault tolerance
//
// The server is the process's fault boundary (docs/OPERATIONS.md is the
// runbook). Panics anywhere in a request — handler code, engine
// evaluation, pool workers (surfaced by pool.ForEach as *pool.PanicError
// values) — become structured 500s with the stack captured in the audit
// log; the process and its caches keep serving. BeginDrain /
// CancelInFlight implement graceful shutdown: new requests get 503 +
// Retry-After while in-flight ones finish under their budgets, then
// stragglers are budget-cancelled into structured 200s. Overload walks a
// degradation ladder (clamped budgets → solver-free greedy shrink →
// shed) decided per request from queue depth and a latency EWMA, with
// fixed rules: 2×, 4× and 8× MaxConcurrent waiting requests, a clamped
// budget of DefaultTimeout/4 and 20,000 SAT conflicts per call. Every
// outcome can be recorded to an append-only JSONL audit log whose
// deterministic fields must reproduce byte-for-byte under Replay; the
// internal/faults harness injects seeded panics and stalls across all of
// these layers for the chaos suite.
package server
