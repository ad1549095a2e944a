package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/minones"
	"repro/internal/ra"
	"repro/internal/relation"
)

// ErrQueriesAgree is returned when the two queries agree on the full
// instance D: no counterexample exists within D, which callers (the CLI,
// the serving layer's grader) treat as a distinct, non-error outcome.
var ErrQueriesAgree = errors.New("core: queries agree on D; no counterexample exists within D")

// ErrBudget wraps every error the algorithms return because a per-request
// budget ran out (the problem's Ctx expired or was canceled) rather than
// because the problem itself is defective. Long-lived callers (the serving
// layer) detect it with errors.Is and report "budget exceeded" instead of a
// hard failure.
var ErrBudget = errors.New("core: request budget exceeded")

// Problem is an instance of SCP/SWP: two union-compatible queries that
// disagree on a database instance satisfying the constraints.
type Problem struct {
	Q1, Q2      ra.Node
	DB          *relation.Database
	Constraints []relation.Constraint
	// Params binds the queries' @-parameters (the original setting λ).
	Params map[string]relation.Value

	// Ctx, when non-nil, carries the request's wall-clock budget: its
	// deadline/cancellation is polled between loop iterations of the
	// search algorithms and inside the SAT/SMT solvers, so an expired
	// context aborts a solve in flight. Algorithms then fail with an error
	// wrapping ErrBudget and the context's error; they never return a
	// wrong counterexample (every result is verified before it is
	// returned). Nil means no budget.
	Ctx context.Context
	// MaxConflicts, when > 0, bounds every individual SAT call's conflict
	// count (minones.Options.MaxConflictsPerCall), turning runaway solves
	// into Unknown statuses.
	MaxConflicts int64
	// MaxRows, when > 0, tightens the engine's intermediate-row budget for
	// this problem's evaluations (engine.Options.MaxRows).
	MaxRows int
}

// interrupted reports the budget error to surface when the problem's
// context has expired, or nil while the budget still holds. Loops call it
// between iterations; the error wraps both ErrBudget and the context error
// (context.DeadlineExceeded / context.Canceled).
func (p Problem) interrupted() error {
	if p.Ctx == nil {
		return nil
	}
	if err := p.Ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrBudget, err)
	}
	return nil
}

// stopFunc returns the solver stop hook enforcing the context budget, or
// nil when the problem carries none.
func (p Problem) stopFunc() func() bool {
	if p.Ctx == nil {
		return nil
	}
	done := p.Ctx.Done()
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// solverOpts maps the problem's budget onto a minones solver configuration.
func (p Problem) solverOpts() minones.Options {
	return minones.Options{MaxConflictsPerCall: p.MaxConflicts, Stop: p.stopFunc()}
}

// engineOpts maps the problem's budget onto engine evaluation options:
// the row cap, plus the context budget as the engine's evaluation-time
// stop hook (so one long evaluation aborts mid-flight instead of only
// between phases).
func (p Problem) engineOpts() engine.Options {
	opts := engine.Options{MaxRows: p.MaxRows}
	if p.Ctx != nil {
		opts.Stop = p.interrupted
	}
	return opts
}

// disagrees is Disagrees under the problem's budgeted engine options,
// against an arbitrary (sub)instance.
func (p Problem) disagrees(db *relation.Database) (bool, *relation.Relation, *relation.Relation, error) {
	return disagreesOpts(p.Q1, p.Q2, db, p.Params, p.engineOpts())
}

// ForeignKeys returns the foreign-key constraints of the problem (the only
// constraint kind not closed under subinstances, Section 2.1).
func (p Problem) ForeignKeys() []relation.ForeignKey {
	var out []relation.ForeignKey
	for _, c := range p.Constraints {
		if fk, ok := c.(relation.ForeignKey); ok {
			out = append(out, fk)
		}
	}
	return out
}

// Counterexample is a subinstance D' ⊆ D with Q1(D') ≠ Q2(D').
type Counterexample struct {
	// DB is the counterexample subinstance.
	DB *relation.Database
	// IDs are the identifiers of the kept tuples, sorted.
	IDs []relation.TupleID
	// Witness, when non-nil, is the output tuple whose witness was
	// minimized (the SWP tuple t).
	Witness relation.Tuple
	// Params is the parameter setting λ' under which the counterexample
	// distinguishes the queries (SPCP, Definition 3); nil means the
	// problem's original parameters.
	Params map[string]relation.Value
	// Q1, Q2, when non-nil, are the parameterized rewrites of the
	// problem's queries that Params applies to (thresholds replaced by
	// @-parameters). Verification uses them in place of the originals.
	Q1, Q2 ra.Node
}

// Size returns the number of tuples in the counterexample.
func (c *Counterexample) Size() int { return c.DB.Size() }

// Stats records the per-component measurements the paper's experiments
// report (Figures 3, 4, 6). The per-component times (ProvEvalTime,
// SolverTime) are sums of per-task durations: under parallel execution
// (pool.DefaultWorkers > 1) they report aggregate work across the pool and
// can exceed the wall-clock TotalTime.
type Stats struct {
	Algorithm    string
	RawEvalTime  time.Duration // evaluating Q1, Q2 (and Q1−Q2) plainly
	ProvEvalTime time.Duration // provenance-annotated evaluation
	SolverTime   time.Duration // SAT/SMT solving
	TotalTime    time.Duration
	WitnessSize  int
	ModelsTried  int
	Optimal      bool
	TimedOut     bool
}

// Verify checks that ce is a genuine counterexample for the problem: a
// subinstance satisfying the constraints on which the queries disagree. The
// counterexample's parameter setting takes precedence over the problem's.
func Verify(p Problem, ce *Counterexample) error {
	if !ce.DB.SubinstanceOf(p.DB) {
		return fmt.Errorf("core: counterexample is not a subinstance of D")
	}
	for _, c := range p.Constraints {
		if err := c.Validate(ce.DB); err != nil {
			return fmt.Errorf("core: counterexample violates %s: %v", c, err)
		}
	}
	params := p.Params
	if ce.Params != nil {
		params = ce.Params
	}
	q1, q2 := p.Q1, p.Q2
	if ce.Q1 != nil && ce.Q2 != nil {
		q1, q2 = ce.Q1, ce.Q2
	}
	r1, r2, err := engine.EvalPair(q1, q2, ce.DB, params, p.engineOpts())
	if err != nil {
		return err
	}
	if r1.SetEqual(r2) {
		return fmt.Errorf("core: queries agree on the candidate counterexample")
	}
	return nil
}

// Disagrees evaluates both queries on db under params and reports whether
// their results differ, along with the difference tuples Q1\Q2 and Q2\Q1.
func Disagrees(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value) (bool, *relation.Relation, *relation.Relation, error) {
	return disagreesOpts(q1, q2, db, params, engine.Options{})
}

func disagreesOpts(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, opts engine.Options) (bool, *relation.Relation, *relation.Relation, error) {
	r1, r2, err := engine.EvalPair(q1, q2, db, params, opts)
	if err != nil {
		return false, nil, nil, err
	}
	d12 := r1.SetDiff(r2)
	d21 := r2.SetDiff(r1)
	return d12.Len() > 0 || d21.Len() > 0, d12, d21, nil
}

// subinstanceFromIDs builds a counterexample database from tuple ids. The
// returned ids are deduplicated and sorted, per the Counterexample.IDs
// contract (callers feed ids in solver-model order, which is not stable).
func subinstanceFromIDs(db *relation.Database, ids []int) (*relation.Database, []relation.TupleID) {
	keep := make(map[relation.TupleID]bool, len(ids))
	out := make([]relation.TupleID, 0, len(ids))
	for _, id := range ids {
		tid := relation.TupleID(id)
		if !keep[tid] {
			keep[tid] = true
			out = append(out, tid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	sub := db.Subinstance(keep)
	return sub, out
}
