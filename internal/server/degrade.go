package server

import "time"

// The degradation ladder: under overload the server steps requests down
// instead of refusing them outright. Levels are decided per request from
// two signals — the admission queue depth and an EWMA of recent request
// latency — against fixed rules scaled off MaxConcurrent and
// DefaultTimeout. Only a worker runs the ladder; the frontend only
// shuttles bytes.
//
//	level 0  normal        full explain under the requested budgets
//	level 1  clamped       ≥ 2×MaxConcurrent waiting: wall-clock budget
//	                       clamped to DefaultTimeout/4, SAT conflicts to
//	                       degradedMaxConflicts
//	level 2  solver_free   ≥ 4×MaxConcurrent waiting: level 1 clamps plus
//	                       the solver-free path, agree-check + greedy
//	                       shrink (core.ShrinkGreedy), which still yields
//	                       a verified counterexample, just not a
//	                       guaranteed-minimal one
//	level 3  shed          ≥ 8×MaxConcurrent waiting: 429 with
//	                       Retry-After — the queue is past saving
//
// Responses carry the applied level in the "degraded" field so clients and
// the audit log can tell a full answer from a degraded one.
const (
	degradeNone = iota
	degradeClamped
	degradeSolverFree
	degradeShed
)

// degradedMaxConflicts is the per-SAT-call conflict cap from level 1 up.
const degradedMaxConflicts = 20_000

// degradeName maps a ladder level to its response/docs name.
func degradeName(level int) string {
	switch level {
	case degradeClamped:
		return "clamped"
	case degradeSolverFree:
		return "solver_free"
	case degradeShed:
		return "shed"
	}
	return ""
}

// degradeLevel reads the overload signals and picks the ladder level for a
// newly arrived request.
func (g *Gate) degradeLevel() int {
	waiting, slots := int(g.waiting.Load()), g.cfg.MaxConcurrent
	switch {
	case waiting >= 8*slots:
		return degradeShed
	case waiting >= 4*slots:
		return degradeSolverFree
	case waiting >= 2*slots:
		return degradeClamped
	}
	// Latency signal: when recent requests are chewing most of the default
	// budget the server is compute-bound even if the queue is short (a few
	// heavy tenants rather than many light ones); start clamping early.
	if g.Latency() > 0.75*float64(g.cfg.DefaultTimeout.Milliseconds()) {
		return degradeClamped
	}
	return degradeNone
}

// clampBudgets applies the level-1+ budget clamps to a request's effective
// budget and conflict cap.
func (g *Gate) clampBudgets(budget time.Duration, maxConflicts int64) (time.Duration, int64) {
	if degraded := g.cfg.DefaultTimeout / 4; budget > degraded {
		budget = degraded
	}
	if maxConflicts <= 0 || maxConflicts > degradedMaxConflicts {
		maxConflicts = degradedMaxConflicts
	}
	return budget, maxConflicts
}
