package engine

import (
	"errors"
	"fmt"

	"repro/internal/boolexpr"
	"repro/internal/faults"
	"repro/internal/ra"
	"repro/internal/relation"
)

// MaxIntermediateRows bounds the size of any intermediate result. Queries
// exceeding it fail with ErrRowBudget instead of exhausting memory — the
// same pragmatic cut the paper applied ("we had to drop two overly
// complicated student queries that involved massive cross products").
// FirstDiff counts a streamed join's pairs against it too, but stops at
// the witness, so it answers such a cross product whose witness streams
// out before the bound.
var MaxIntermediateRows = 1_000_000

// ErrRowBudget is returned when a query's intermediate result exceeds the
// row budget in effect — the process-wide MaxIntermediateRows, or the
// tighter per-evaluation Options.MaxRows. The message deliberately names
// no number: the effective bound is per-evaluation.
var ErrRowBudget = errors.New("engine: intermediate result exceeds the row budget")

// ErrNoAggregates is wrapped by the error returned when a plan contains
// GroupBy but the semiring does not support aggregation (Aggregates() is
// false). Batch callers detect it with errors.Is and fall back to
// per-candidate evaluation.
var ErrNoAggregates = errors.New("engine: semiring does not support aggregation")

// Catalog adapts a Database to ra.Catalog.
type Catalog struct{ DB *relation.Database }

// RelationSchema implements ra.Catalog.
func (c Catalog) RelationSchema(name string) (relation.Schema, bool) {
	r := c.DB.Relation(name)
	if r == nil {
		return relation.Schema{}, false
	}
	return r.Schema, true
}

// Options tune a single evaluation.
type Options struct {
	// NoOptimize skips the logical rewrite pass (selection pushdown,
	// equi-join extraction). Used by tests that compare plans.
	NoOptimize bool
	// NoPlan skips the cost-based join planner (reordering and semi-join
	// reduction). Used by differential tests and as a benchmark baseline.
	NoPlan bool
	// Observer, when non-nil, collects the planner's decisions and the
	// actual join cardinalities observed during execution.
	Observer *PlanReport
	// MaxRows, when > 0, tightens the intermediate-result row budget for
	// this evaluation below the process-wide MaxIntermediateRows (it can
	// never loosen it). Long-lived callers (the serving layer) use it to
	// bound a single request's memory without touching the global.
	MaxRows int
	// Stop, when non-nil, is polled during evaluation — once per operator
	// and on an output-pair stride inside the join loops — and a non-nil
	// return aborts the evaluation with exactly that error. It is how
	// request-scoped deadlines reach into a single long evaluation (the
	// stride bounds the overshoot after expiry to stopPollStride join
	// pairs).
	Stop func() error
}

// stopPollStride is how many join pairs may be emitted between two Stop
// polls.
const stopPollStride = 8192

// poll invokes the Stop hook, if any.
func (o Options) poll() error {
	if o.Stop == nil {
		return nil
	}
	return o.Stop()
}

// rowBudget is the effective intermediate-row bound for one evaluation:
// the per-evaluation MaxRows when set and tighter, else the global default.
func (o Options) rowBudget() int {
	if o.MaxRows > 0 && o.MaxRows < MaxIntermediateRows {
		return o.MaxRows
	}
	return MaxIntermediateRows
}

// Eval evaluates a query under set semantics. params binds the query's
// @-parameters (may be nil).
func Eval(q ra.Node, db *relation.Database, params map[string]relation.Value) (*relation.Relation, error) {
	return EvalOpts(q, db, params, Options{})
}

// EvalOpts is Eval with explicit evaluation options.
func EvalOpts(q ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*relation.Relation, error) {
	r, err := RunOpts(Set, q, db, params, opts)
	if err != nil {
		return nil, err
	}
	return r.Relation(opName(q)), nil
}

// EvalProv evaluates a SPJUD query with how-provenance annotation. GroupBy
// nodes are rejected: aggregate provenance (Section 5) is built in core on
// top of the provenance of γ's input.
func EvalProv(q ra.Node, db *relation.Database, params map[string]relation.Value) (*ProvRel, error) {
	return Run[*boolexpr.Expr](Why, q, db, params)
}

// EvalProvOpts is EvalProv with explicit evaluation options.
func EvalProvOpts(q ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*ProvRel, error) {
	return RunOpts[*boolexpr.Expr](Why, q, db, params, opts)
}

// CountDistinct evaluates a query under the counting semiring and returns
// the cardinality of its support — the number of distinct result tuples
// under set semantics — without building provenance or a result relation.
// The witness-search algorithms use it as a cheap membership/emptiness
// pre-check on pushed-down queries.
func CountDistinct(q ra.Node, db *relation.Database, params map[string]relation.Value) (int, error) {
	return CountDistinctOpts(q, db, params, Options{})
}

// CountDistinctOpts is CountDistinct with explicit evaluation options.
func CountDistinctOpts(q ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (int, error) {
	r, err := RunOpts[Count](Counting, q, db, params, opts)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

// Run evaluates a query under an arbitrary annotation semiring, applying
// the optimizer first.
func Run[T any](s Semiring[T], q ra.Node, db *relation.Database, params map[string]relation.Value) (*Rel[T], error) {
	return RunOpts(s, q, db, params, Options{})
}

// RunOpts is Run with explicit evaluation options.
func RunOpts[T any](s Semiring[T], q ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*Rel[T], error) {
	faults.Inject(faults.EngineEval)
	rs, err := runRoots(s, []ra.Node{q}, db, params, opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// exec carries the per-query evaluation state.
type exec[T any] struct {
	s      Semiring[T]
	db     *relation.Database
	params map[string]relation.Value
	opts   Options
	// refs counts how many parents (and roots) reference each node of the
	// prepared DAG: more than one for a subtree the roots share, a base
	// relation scanned twice, or a Yannakakis-reduced input that appears in
	// several semi-join chains. memo caches the results of exactly those
	// shared nodes until their last reader has taken them, so each is
	// evaluated once without pinning every intermediate of the plan in
	// memory. Safe because operators never mutate their inputs.
	refs map[ra.Node]int
	memo map[ra.Node]*Rel[T]
	// retain memoizes every node's result, not only the shared ones, and
	// lists the nodes in order (children before parents): the memo is then
	// the retained state of a PreparedDiff, or one update's per-node changes.
	retain bool
	order  []ra.Node
	// plans, when non-nil, keeps what evaluating a node compiled — σ's
	// predicate, π's column map, a join's plan with the key index its hash
	// join built over the right input — so that a PreparedDiff's updates
	// reuse it instead of compiling again (the join delta rule probes that
	// index, too).
	plans map[ra.Node]any
	// delta, set when the exec computes an update's changes (ApplyDelta),
	// evaluates the nodes whose change is not simply the generic operator
	// applied to their children's changes; it reports false for the rest.
	delta func(q ra.Node) (*Rel[T], bool, error)
}

func newExec[T any](s Semiring[T], db *relation.Database, params map[string]relation.Value, opts Options) *exec[T] {
	return &exec[T]{s: s, db: db, params: params, opts: opts,
		refs: map[ra.Node]int{}, memo: map[ra.Node]*Rel[T]{}}
}

// markShared counts node references without re-descending already-visited
// pointers (a naive walk of a reduction DAG is exponential).
func (e *exec[T]) markShared(q ra.Node) {
	if e.refs[q]++; e.refs[q] > 1 {
		return
	}
	for _, c := range q.Children() {
		e.markShared(c)
	}
}

// node returns q's result. Outside retained mode a shared node's result
// stays in the memo until the last of its refs readers has read it.
func (e *exec[T]) node(q ra.Node) (*Rel[T], error) {
	if r, ok := e.memo[q]; ok {
		if !e.retain {
			if e.refs[q]--; e.refs[q] == 0 {
				delete(e.memo, q)
			}
		}
		return r, nil
	}
	r, err := e.eval(q)
	if err != nil {
		return nil, err
	}
	switch {
	case e.retain:
		e.memo[q] = r
		e.order = append(e.order, q)
	case e.refs[q] > 1:
		e.refs[q]--
		e.memo[q] = r
	}
	return r, nil
}

func (e *exec[T]) eval(q ra.Node) (*Rel[T], error) {
	if err := e.opts.poll(); err != nil {
		return nil, err
	}
	if e.delta != nil {
		if r, ok, err := e.delta(q); ok {
			return r, err
		}
	}
	switch x := q.(type) {
	case *ra.Rel:
		return e.base(x)
	case *ra.Select:
		in, err := e.node(x.In)
		if err != nil {
			return nil, err
		}
		return e.selectOp(x, in)
	case *ra.Project:
		in, err := e.node(x.In)
		if err != nil {
			return nil, err
		}
		return e.project(x, in)
	case *ra.Join, *ra.EquiJoin:
		return e.joinNode(q)
	case *ra.Union:
		l, err := e.node(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.node(x.R)
		if err != nil {
			return nil, err
		}
		if !l.Schema.UnionCompatible(r.Schema) {
			return nil, fmt.Errorf("engine: union of incompatible schemas %s, %s", l.Schema, r.Schema)
		}
		return e.union(l, r), nil
	case *ra.Diff:
		l, err := e.node(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.node(x.R)
		if err != nil {
			return nil, err
		}
		if !l.Schema.UnionCompatible(r.Schema) {
			return nil, fmt.Errorf("engine: difference of incompatible schemas %s, %s", l.Schema, r.Schema)
		}
		return e.diff(l, r), nil
	case *ra.Rename:
		in, err := e.node(x.In)
		if err != nil {
			return nil, err
		}
		return renameRel(in, x.As), nil
	case *ra.GroupBy:
		if !e.s.Aggregates() {
			return nil, fmt.Errorf("%w (%s semiring)", ErrNoAggregates, e.s.Name())
		}
		in, err := e.node(x.In)
		if err != nil {
			return nil, err
		}
		return e.groupBy(x, in)
	case *ra.Semi:
		l, err := e.node(x.L)
		if err != nil {
			return nil, err
		}
		r, err := e.node(x.R)
		if err != nil {
			return nil, err
		}
		return e.semiJoin(x, l, r)
	case *ra.Permute:
		in, err := e.node(x.In)
		if err != nil {
			return nil, err
		}
		return e.permute(x, in), nil
	}
	return nil, fmt.Errorf("engine: unknown node type %T", q)
}

// renameRel requalifies a relation's schema without copying tuple data:
// the tuple slice is shared but capacity-clipped (tuples are only ever
// appended, never overwritten, so an append on the rename reallocates
// instead of scribbling on the input's backing array). Annotations ARE
// overwritten in place when Add ⊕-merges a duplicate, so the annotation
// slice must be copied; and the hash index is not shared — an Add on the
// renamed relation would otherwise mutate the input's index under a
// different schema.
func renameRel[T any](in *Rel[T], as string) *Rel[T] {
	anns := make([]T, len(in.Anns))
	copy(anns, in.Anns)
	return &Rel[T]{
		Schema: in.Schema.Qualify(as),
		Tuples: in.Tuples[:len(in.Tuples):len(in.Tuples)],
		Anns:   anns,
	}
}

// base scans a stored relation, annotating each tuple with its Leaf
// annotation and ⊕-merging duplicates. Tuples whose leaf annotation is
// definitely zero are pruned at the scan: under the bitvector batch
// semirings that shrinks the scan from the full database to the union of
// the candidate subinstances (set, counting and why leaves are never zero,
// so nothing changes for them). A relation scanned twice is one shared
// node of the prepared DAG, so the memo scans it once.
func (e *exec[T]) base(x *ra.Rel) (*Rel[T], error) {
	r := e.db.Relation(x.Name)
	if r == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", x.Name)
	}
	out := NewRel[T](r.Schema)
	for i, t := range r.Tuples {
		ann, err := e.s.Leaf(r.ID(i))
		if err != nil {
			return nil, fmt.Errorf("%w (relation %q)", err, x.Name)
		}
		if e.s.IsZero(ann) {
			continue
		}
		out.Add(e.s, t, ann)
	}
	return out, nil
}

// selectOp filters the input. Like π, ∪ and Permute it skips input tuples
// annotated zero, which are absent: one-shot evaluations prune zeros where
// they arise, but the changes ApplyDelta computes keep the entries where a
// deletion and an insertion cancelled.
func (e *exec[T]) selectOp(x *ra.Select, in *Rel[T]) (*Rel[T], error) {
	pred, ok := e.plans[x].(ra.CompiledExpr)
	if !ok {
		var err error
		if pred, err = ra.CompileExpr(x.Pred, in.Schema, e.params); err != nil {
			return nil, err
		}
		e.keep(x, pred)
	}
	out := NewRelCap[T](in.Schema, in.Len())
	for i, t := range in.Tuples {
		if e.s.IsZero(in.Anns[i]) {
			continue
		}
		v, err := pred(t)
		if err != nil {
			return nil, err
		}
		if ra.Truthy(v) {
			// Input tuples are distinct, so filtered output stays distinct.
			out.appendDistinct(t, in.Anns[i])
		}
	}
	return out, nil
}

func (e *exec[T]) project(x *ra.Project, in *Rel[T]) (*Rel[T], error) {
	pp, ok := e.plans[x].(projection)
	if !ok {
		var err error
		if pp.idxs, pp.schema, err = projectPlan(x, in.Schema); err != nil {
			return nil, err
		}
		e.keep(x, pp)
	}
	out := NewRel[T](pp.schema)
	for i, t := range in.Tuples {
		if !e.s.IsZero(in.Anns[i]) {
			out.Add(e.s, t.Project(pp.idxs), in.Anns[i])
		}
	}
	return out, nil
}

// projection is π's compiled plan: input column positions and the output
// schema.
type projection struct {
	idxs   []int
	schema relation.Schema
}

// keep records a node's compiled plan when the exec keeps plans.
func (e *exec[T]) keep(q ra.Node, plan any) {
	if e.plans != nil {
		e.plans[q] = plan
	}
}

func projectPlan(p *ra.Project, in relation.Schema) ([]int, relation.Schema, error) {
	idxs := make([]int, len(p.Cols))
	attrs := make([]relation.Attribute, len(p.Cols))
	for i, c := range p.Cols {
		j, err := in.Resolve(c)
		if err != nil {
			return nil, relation.Schema{}, err
		}
		idxs[i] = j
		attrs[i] = relation.Attribute{Name: c, Type: in.Attrs[j].Type}
	}
	return idxs, relation.Schema{Attrs: attrs}, nil
}

// opName mirrors the display names the legacy evaluator gave its results.
func opName(q ra.Node) string {
	switch x := q.(type) {
	case *ra.Rel:
		return x.Name
	case *ra.Select:
		return "σ"
	case *ra.Project:
		return "π"
	case *ra.Join:
		return "⋈"
	case *ra.Union:
		return "∪"
	case *ra.Diff:
		return "−"
	case *ra.Rename:
		return x.As
	case *ra.GroupBy:
		return "γ"
	}
	return "result"
}
