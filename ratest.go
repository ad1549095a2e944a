// Package ratest is a Go reproduction of RATest, the system of Miao, Roy,
// and Yang, "Explaining Wrong Queries Using Small Examples" (SIGMOD 2019).
//
// Given a reference query Q1, a test query Q2, and a database instance D on
// which they disagree, ratest finds a smallest counterexample: a
// subinstance D' ⊆ D with Q1(D') ≠ Q2(D'), which explains the
// inequivalence with familiar data. Queries are written in a textual
// relational algebra (select/project/join/union/diff/rename/groupby).
//
// Quick start:
//
//	db := ratest.NewDatabase()
//	... // create relations, insert tuples
//	q1 := ratest.MustParseQuery("project[name](select[dept = 'CS'](Student join Registration))")
//	q2 := ratest.MustParseQuery("project[name](Student join Registration)")
//	ce, stats, err := ratest.Explain(q1, q2, db, nil)
//
// The heavy lifting lives in the internal packages: internal/core holds the
// algorithms (Basic, Optσ, the poly-time special cases, and the aggregate
// algorithms of Section 5), internal/engine the semiring-generic execution
// engine (set semantics, how-provenance and derivation counting over shared
// hash-based physical operators), internal/sat + internal/minones +
// internal/smt the solvers.
package ratest

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

// ErrBudget is reported (wrapped) when an explanation fails because its
// context budget — deadline or cancellation — ran out rather than because
// the problem is defective. Detect it with errors.Is.
var ErrBudget = core.ErrBudget

// Re-exported data-model types.
type (
	// Database is a database instance with identifier-carrying tuples.
	Database = relation.Database
	// Relation is a named table.
	Relation = relation.Relation
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Attribute is a named, typed column.
	Attribute = relation.Attribute
	// Tuple is an ordered list of values.
	Tuple = relation.Tuple
	// TupleID identifies a base tuple.
	TupleID = relation.TupleID
	// Value is a scalar database value.
	Value = relation.Value
	// Constraint is an integrity constraint.
	Constraint = relation.Constraint
	// Key declares a uniqueness constraint.
	Key = relation.Key
	// ForeignKey declares a referential constraint.
	ForeignKey = relation.ForeignKey
	// NotNull declares a non-null constraint.
	NotNull = relation.NotNull
	// FD declares a functional dependency.
	FD = relation.FD

	// Query is a relational algebra operator tree.
	Query = ra.Node

	// Counterexample is a subinstance on which the queries disagree.
	Counterexample = core.Counterexample
	// Stats reports per-component timings and witness size.
	Stats = core.Stats
)

// Value constructors, re-exported.
var (
	NewDatabase = relation.NewDatabase
	NewSchema   = relation.NewSchema
	Attr        = relation.Attr
	NewTuple    = relation.NewTuple
	Int         = relation.Int
	Float       = relation.Float
	Str         = relation.String
	Bool        = relation.Bool
	Null        = relation.Null
	ParseValue  = relation.ParseValue
)

// Kind constants for schema construction.
const (
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
	KindBool   = relation.KindBool
	KindNull   = relation.KindNull
)

// ParseQuery parses the textual relational algebra syntax, e.g.
//
//	project[name, major](select[dept = 'CS'](Student join Registration))
func ParseQuery(src string) (Query, error) { return raparser.Parse(src) }

// MustParseQuery parses a query and panics on error.
func MustParseQuery(src string) Query { return raparser.MustParse(src) }

// Options configure Explain.
type Options struct {
	// Constraints that counterexamples must satisfy (foreign keys are
	// enforced by the solver; keys/FDs/not-null hold automatically on
	// subinstances of a valid instance).
	Constraints []Constraint
	// Params binds the queries' @-parameters.
	Params map[string]Value
	// Algorithm forces a specific algorithm: "", "auto", "optsigma",
	// "optsigmaall", "basic", "monotone", "justar", "spjudstar",
	// "aggbasic", "aggparam", "aggopt".
	Algorithm string
	// Delta is the model budget of the Basic algorithm (default 128).
	Delta int
	// MaxConflicts, when > 0, bounds each SAT call's conflict count; solves
	// exceeding it report an unknown status instead of running on.
	MaxConflicts int64
	// MaxRows, when > 0, tightens the per-evaluation intermediate-row
	// budget below the engine-wide default (it can never loosen it).
	MaxRows int
}

// Explain finds a small counterexample distinguishing q1 (the reference
// query) from q2 (the query under test) within db. It dispatches on the
// query class like the RATest system (Section 6): aggregate queries go
// through the Section 5 algorithms, SPJUD queries through Optσ.
func Explain(q1, q2 Query, db *Database, opts *Options) (*Counterexample, *Stats, error) {
	return ExplainContext(context.Background(), q1, q2, db, opts)
}

// ExplainContext is Explain under a caller-supplied context: the context's
// deadline/cancellation is threaded through the search loops and into the
// SAT/SMT solvers, so a request-scoped budget aborts an explanation in
// flight (the serving layer's per-request wall-clock budget). A budget
// failure is reported as an error wrapping ErrBudget and the context error;
// partial results are never returned unverified.
func ExplainContext(ctx context.Context, q1, q2 Query, db *Database, opts *Options) (*Counterexample, *Stats, error) {
	if opts == nil {
		opts = &Options{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := core.Problem{
		Q1: q1, Q2: q2, DB: db, Constraints: opts.Constraints, Params: opts.Params,
		Ctx: ctx, MaxConflicts: opts.MaxConflicts, MaxRows: opts.MaxRows,
	}
	switch opts.Algorithm {
	case "", "auto":
		return core.Explain(p)
	case "optsigma":
		return core.OptSigma(p)
	case "optsigmaall":
		return core.OptSigmaAll(p)
	case "basic":
		return core.Basic(p, opts.Delta)
	case "monotone":
		return core.MonotoneSWP(p, 0)
	case "justar":
		return core.JUStarSWP(p)
	case "spjudstar":
		return core.SPJUDStarSWP(p, 0)
	case "aggbasic":
		return core.AggBasic(p, core.AggOptions{})
	case "aggparam":
		return core.AggBasic(p, core.AggOptions{Parameterize: true})
	case "aggopt":
		return core.AggOpt(p, core.AggOptions{})
	case "shrinkgreedy":
		// Solver-free: agree-check plus greedy shrink. Used by the serving
		// layer's degradation ladder; yields a verified (not necessarily
		// minimal) counterexample without any SAT/SMT work.
		return core.ShrinkGreedy(p)
	}
	return nil, nil, fmt.Errorf("ratest: unknown algorithm %q", opts.Algorithm)
}

// EnumerateSmallest returns up to max distinct smallest counterexamples
// (Example 2 of the paper notes the running example has four). Supported
// for SPJUD queries.
func EnumerateSmallest(q1, q2 Query, db *Database, opts *Options, max int) ([]*Counterexample, error) {
	if opts == nil {
		opts = &Options{}
	}
	return core.EnumerateSmallest(core.Problem{
		Q1: q1, Q2: q2, DB: db, Constraints: opts.Constraints, Params: opts.Params,
		MaxConflicts: opts.MaxConflicts, MaxRows: opts.MaxRows,
	}, max)
}

// Eval evaluates a query over a database (set semantics).
func Eval(q Query, db *Database, params map[string]Value) (*Relation, error) {
	return engine.Eval(q, db, params)
}

// Equivalent reports whether the two queries agree on db (i.e., db is not a
// counterexample for them).
func Equivalent(q1, q2 Query, db *Database, params map[string]Value) (bool, error) {
	differs, _, _, err := core.Disagrees(q1, q2, db, params)
	return !differs, err
}

// Verify checks that ce is a genuine counterexample for q1 vs q2 on db.
func Verify(q1, q2 Query, db *Database, opts *Options, ce *Counterexample) error {
	if opts == nil {
		opts = &Options{}
	}
	return core.Verify(core.Problem{Q1: q1, Q2: q2, DB: db, Constraints: opts.Constraints, Params: opts.Params}, ce)
}

// FormatCounterexample renders a counterexample for display, including the
// two query results on it (what the RATest web UI shows, Section 6).
func FormatCounterexample(q1, q2 Query, ce *Counterexample, params map[string]Value) string {
	if ce.Params != nil {
		params = ce.Params
	}
	if ce.Q1 != nil && ce.Q2 != nil {
		q1, q2 = ce.Q1, ce.Q2
	}
	out := fmt.Sprintf("Counterexample with %d tuples:\n%s", ce.Size(), ce.DB)
	if len(ce.Params) > 0 {
		out += fmt.Sprintf("Parameter setting: %v\n", ce.Params)
	}
	r1, err1 := engine.Eval(q1, ce.DB, params)
	r2, err2 := engine.Eval(q2, ce.DB, params)
	if err1 == nil && err2 == nil {
		out += fmt.Sprintf("\nReference query result:\n%s\nTest query result:\n%s", r1, r2)
	}
	return out
}
