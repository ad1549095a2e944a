// Package cluster is the stateless frontend of a sharded ratestd
// deployment: it terminates client requests, enforces tenant fairness
// exactly once, and routes /explain and /grade to a fixed set of worker
// replicas (plain ratestd processes) behind a resilience layer, so that
// worker crashes, stalls and partitions never surface to students as
// anything but a structured response.
//
// # Routing
//
// Requests naming a generated (course/TPC-H) instance are routed by
// consistent hash of the instance cache key, so each instance — and the
// plan-LRU entries keyed against it — stays hot on one stable owner
// instead of being regenerated on every replica. Requests carrying inline
// instances are request-private on any worker and route round-robin.
// Failover follows the ring: attempt k goes to the k-th distinct successor
// of the owner.
//
// # Resilience
//
// Every attempt runs under a per-try timeout derived from the request's
// remaining budget. Safe failures — connection errors, 503 draining,
// worker panic 500s, truncated/unparseable responses, per-try timeouts —
// are retried on the next replica with exponential backoff and full
// jitter; 200s (including budget_exceeded) and 429 shed are final and
// never retried. Each worker has a circuit breaker (closed → open after
// consecutive failures → half-open single-probe after a cooldown), an
// active health checker probes readiness and ejects/readmits outliers,
// and a budget-aware hedged second attempt covers stragglers: when the
// first try exceeds a latency-EWMA-derived delay and enough budget
// remains, a second try starts on another replica and the first result
// wins.
//
// # The request gate
//
// The frontend serves through the same request gate as a worker
// (server.Gate, embedded in [Frontend]): panic-isolated handlers, drain on
// SIGTERM (503 + Retry-After, in-flight requests finish, stragglers
// budget-cancel), the budget clamp, tenant fairness — enforced exactly
// once, here, for the whole cluster — fair admission, the latency EWMA
// that drives adaptive hedging and Retry-After, structured errors for
// every outcome (an unknown path included), and an audit log whose entries
// join with the workers' logs on the frontend-assigned
// X-Ratest-Request-Id for cluster-wide replay verification (ratestd
// -replay frontend.jsonl,worker1.jsonl,...). This package keeps only what
// is the frontend's own: routing, breakers, health checks, backoff,
// hedging and the transport.
//
// Sessions are not routed: a live-grading session's state lives on the
// worker that created it, so clients use that worker's own address, and
// the frontend answers /session paths with a structured 404 saying so.
//
// Fault injection: the transport threads every proxied request through
// the faults package's network points (cluster.dial, cluster.body,
// cluster.truncate), so the seeded chaos machinery drives the whole
// frontend→worker path. The gate's handler fault point (server.handler)
// fires on workers only, so a storm that arms it for a whole process
// panics in-process workers, never the frontend. See docs/OPERATIONS.md
// for the topology runbook.
package cluster
