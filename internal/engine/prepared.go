package engine

import (
	"errors"
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the delta-incremental evaluation subsystem. PrepareDiff
// evaluates Q1 − Q2 and Q2 − Q1 once on the full database, in one exec under
// the counting semiring in retained mode: the exec keeps the output of every
// node of the prepared DAG, where the two queries' equal subtrees are one
// node.
// PreparedDiff.ApplyDelta (delta.go) then answers "what do Q1 − Q2 and
// Q2 − Q1 look like after this update" — deletions, insertions, and updates
// expressed as delete+insert — by running the same plan again under zsum,
// the exact ring ℤ of signed count changes, so that every node yields the
// change of its output instead of the output. σ, π, ρ, ∪ and the planner's
// Permute are linear: their change is the generic operator applied to their
// children's changes. Only four operators keep delta rules, which read the
// retained outputs:
//
//   - scans translate removed ids into per-tuple count decrements and
//     inserted tuples into increments,
//   - joins expand Δ(L⋈R) = ΔL⋈R + L⋈ΔR + ΔL⋈ΔR: the first two terms probe
//     a retained key index of the other side, the last is the generic join
//     of the two changes,
//   - differences re-derive only the tuples whose left or right count
//     changed, from the retained child outputs (the Section-6 rule is not
//     linear, so the delta consults old and new counts),
//   - γ re-aggregates only the groups whose support intersects the change.
//
// Derivation counts are the bookkeeping that makes deletion cheap: a deleted
// input tuple decrements the counts it contributed to, and an output tuple
// leaves the result exactly when its count reaches zero — no recomputation.
// Because Diff nodes can also *resurrect* tuples (deleting right-side
// derivations un-suppresses a left tuple), deltas are signed and retained
// outputs may gain tuples on Commit.
//
// A DeltaResult is evaluated against the prepared object's current base
// instance (initially D). Commit folds the delta into the retained state, so
// a shrink loop pays O(|step delta|) per iteration instead of re-evaluating
// the whole query; uncommitted results are independent, which is what
// what-if checks need.

// ErrNotIncremental is returned by PrepareDiff — and by ApplyDelta for
// updates that would break the invariant afterwards — when the plan or its
// evaluation state cannot be maintained incrementally (derivation counts
// beyond maxSafeCount, where exact count arithmetic could overflow, or a
// semi-join-reduced plan). Callers fall back to full evaluation, or
// re-prepare.
var ErrNotIncremental = errors.New("engine: plan is not delta-incrementalizable")

// ErrStaleDelta is returned by DeltaResult.Commit when the prepared state
// advanced (another result was committed) after this result was computed.
// Committing a stale delta would corrupt the retained per-operator state.
var ErrStaleDelta = errors.New("engine: delta result is stale: prepared state has advanced")

// zsum is the ring ℤ used for update deltas: signed count changes merge by
// plain addition. No saturation is needed — PrepareDiff and ApplyDelta keep
// every retained count within maxSafeCount, which bounds every delta product
// and partial sum inside int64.
type zsumRing struct{}

func (zsumRing) Zero() Count                          { return 0 }
func (zsumRing) One() Count                           { return 1 }
func (zsumRing) Plus(a, b Count) Count                { return exactAdd(a, b) }
func (zsumRing) Times(a, b Count) Count               { return exactMul(a, b) }
func (zsumRing) Minus(l, r Count) Count               { return l - r }
func (zsumRing) IsZero(a Count) bool                  { return a == 0 }
func (zsumRing) Leaf(relation.TupleID) (Count, error) { return 1, nil }
func (zsumRing) Aggregates() bool                     { return false }
func (zsumRing) Name() string                         { return "zsum" }

var zsum zsumRing

// exactAdd and exactMul are the delta subsystem's ℤ-ring count arithmetic.
// Unlike Counting.Plus/Times they do not saturate — deliberately: signed
// delta arithmetic must be invertible, and it cannot overflow because
// PrepareDiff and ApplyDelta keep every retained count within maxSafeCount,
// which bounds every product and partial sum the delta rules form.

func exactAdd(a, b Count) Count {
	//lint:saturated exact ℤ-ring delta arithmetic; the maxSafeCount invariant bounds operands, so no overflow
	return a + b
}

func exactMul(a, b Count) Count {
	//lint:saturated exact ℤ-ring delta arithmetic; the maxSafeCount invariant bounds operands, so no overflow
	return a * b
}

// countOf reads a tuple's retained count (0 when absent or zombie).
func countOf(r *Rel[Count], t relation.Tuple) Count {
	if i := r.Lookup(t); i >= 0 {
		return r.Anns[i]
	}
	return 0
}

// deltaOf reads a tuple's signed delta (0 when untouched).
func deltaOf(d *Rel[Count], t relation.Tuple) Count {
	if d == nil {
		return 0
	}
	return countOf(d, t)
}

// applyDelta folds signed count changes into a retained output. Tuples whose
// count reaches zero stay as zombies (removing them would shift positions
// out from under the retained join/group indexes); tuples entering the
// output are appended and indexed.
func applyDelta(base *Rel[Count], d *Rel[Count]) {
	for i, t := range d.Tuples {
		c := d.Anns[i]
		if c == 0 {
			continue
		}
		if j := base.Lookup(t); j >= 0 {
			base.Anns[j] = exactAdd(base.Anns[j], c)
			continue
		}
		base.Add(zsum, t, c)
	}
}

// PreparedDiff is the retained evaluation of Q1 − Q2 and Q2 − Q1 over a base
// instance, ready to answer signed update deltas (deletions, insertions,
// updates as delete+insert; see ApplyDelta in delta.go). It is NOT safe for
// concurrent use: ApplyDelta extends the retained indexes and Commit
// mutates retained outputs and — when insertions are involved — the base
// Database itself, which the prepared object must therefore own.
type PreparedDiff struct {
	db     *relation.Database
	params map[string]relation.Value
	opts   Options
	// top12 and top21 are the two difference directions as plan nodes over
	// the prepared queries; state holds every plan node's retained state, and
	// nodes lists the nodes children before parents.
	top12, top21 *ra.Diff
	state        map[ra.Node]*nodeState
	plans        map[ra.Node]any
	nodes        []ra.Node
	removed      map[relation.TupleID]bool
	epoch        int
	liveSize     int
	// live12 and live21 are the support sizes of the two differences, so
	// emptiness checks are O(1).
	live12, live21 int
}

// nodeState is one plan node's retained state.
type nodeState struct {
	// out is the node's output on the current base instance. It may hold
	// zombie entries (count 0) left behind by committed deletions; consumers
	// must read counts, never assume presence implies membership.
	out *Rel[Count]
	// inputs are the node's children, and none its empty change, shared by
	// every update that leaves the inputs unchanged.
	inputs []ra.Node
	none   *Rel[Count]
	// join and group are the join and γ delta rules' state: a join's plan
	// and key indexes over its inputs' retained outputs, and γ's group
	// membership, built on first use.
	join  *joinIndex
	group *groupIndex
}

// commit folds one update's change of the node, and of γ's rows, into the
// retained state.
func (st *nodeState) commit(d *Rel[Count], rows []groupChange) {
	applyDelta(st.out, d)
	if st.group != nil {
		st.group.commit(rows)
	}
}

// PrepareDiff evaluates q1 and q2 once on db under the counting semiring
// (their equal subtrees once for both) and retains every operator's output
// for ApplyDelta. It returns ErrNotIncremental (wrapped) when the retained
// state cannot support delta arithmetic; other errors mirror a full
// evaluation's (unknown relations, row budget, incompatible schemas).
func PrepareDiff(q1, q2 ra.Node, db *relation.Database, params map[string]relation.Value, opts Options) (*PreparedDiff, error) {
	// Join reordering is shared with the one-shot path, but the Yannakakis
	// semi-join pass is not: a deletion elsewhere can turn a retained tuple
	// dangling, so a semi-join-reduced retained state cannot be maintained
	// by local deltas.
	qs, err := prepare([]ra.Node{q1, q2}, db, opts, false)
	if err != nil {
		return nil, err
	}
	e := newExec[Count](Counting, db, params, opts)
	e.retain = true
	e.plans = map[ra.Node]any{}
	p := &PreparedDiff{
		db: db, params: params, opts: opts,
		top12: &ra.Diff{L: qs[0], R: qs[1]}, top21: &ra.Diff{L: qs[1], R: qs[0]},
		state:   make(map[ra.Node]*nodeState),
		removed: map[relation.TupleID]bool{}, liveSize: db.Size(),
	}
	ds, err := e.run(p.top12, p.top21)
	if err != nil {
		return nil, err
	}
	for _, n := range e.order {
		if _, ok := n.(*ra.Semi); ok {
			return nil, fmt.Errorf("%w: semi-join reduced plan", ErrNotIncremental)
		}
		out := e.memo[n]
		// Oversized derivation counts would make the signed delta
		// arithmetic unsound: saturation is not invertible, and delta
		// products of counts near the int64 range overflow silently.
		// maxSafeCount keeps every product and partial sum the delta rules
		// can form exactly representable; plans beyond it fall back.
		for _, c := range out.Anns {
			if c > maxSafeCount {
				return nil, fmt.Errorf("%w: derivation counts too large for exact delta arithmetic", ErrNotIncremental)
			}
		}
		st := &nodeState{out: out, inputs: n.Children(), none: NewRel[Count](out.Schema)}
		st.join, _ = e.plans[n].(*joinIndex)
		p.state[n] = st
		p.nodes = append(p.nodes, n)
	}
	p.plans = e.plans
	p.live12, p.live21 = ds[0].Len(), ds[1].Len()
	return p, nil
}

// Epoch counts committed deltas; it identifies the base instance version.
func (p *PreparedDiff) Epoch() int { return p.epoch }

// BaseSize is the number of tuples in the current base instance.
func (p *PreparedDiff) BaseSize() int { return p.liveSize }

// Disagrees reports whether Q1 and Q2 differ on the current base instance.
func (p *PreparedDiff) Disagrees() bool { return p.live12 > 0 || p.live21 > 0 }

// LiveIDs returns the identifiers of the current base instance, sorted.
func (p *PreparedDiff) LiveIDs() []relation.TupleID {
	out := make([]relation.TupleID, 0, p.liveSize)
	for _, id := range p.db.AllIDs() {
		if !p.removed[id] {
			out = append(out, id)
		}
	}
	return out
}

// Diffs materializes Q1 − Q2 and Q2 − Q1 on the current base instance.
func (p *PreparedDiff) Diffs() (*relation.Relation, *relation.Relation) {
	return materializeDiff(p.state[p.top12].out, nil), materializeDiff(p.state[p.top21].out, nil)
}

func materializeDiff(base *Rel[Count], d *Rel[Count]) *relation.Relation {
	out := relation.NewRelation("−", base.Schema)
	//lint:budgeted one pass over an already-materialized output; deltaOf is an O(1) annotation lookup, not delta propagation
	for i, t := range base.Tuples {
		if exactAdd(base.Anns[i], deltaOf(d, t)) > 0 {
			out.Append(t)
		}
	}
	if d != nil {
		for i, t := range d.Tuples {
			if d.Anns[i] > 0 && base.Lookup(t) < 0 {
				out.Append(t)
			}
		}
	}
	return out
}

// DeltaResult is the effect of one signed update delta on the two
// difference directions, relative to the prepared base instance at the
// epoch it was computed. Multiple uncommitted results from the same epoch
// are independent candidates; Commit folds one of them into the base.
type DeltaResult struct {
	p     *PreparedDiff
	epoch int
	// deltas holds every plan node's signed change; groups the γ rows each
	// γ node replaces on Commit.
	deltas         map[ra.Node]*Rel[Count]
	groups         map[ra.Node][]groupChange
	removed        []relation.TupleID
	inserts        []Insert
	insertedIDs    []relation.TupleID // assigned at Commit, caller order
	size12, size21 int
	committed      bool
}

// supportShift counts how many tuples enter minus leave a retained output
// under a signed delta.
func supportShift(base *Rel[Count], d *Rel[Count]) int {
	shift := 0
	for i, t := range d.Tuples {
		ch := d.Anns[i]
		if ch == 0 {
			continue
		}
		old := countOf(base, t)
		now := exactAdd(old, ch)
		switch {
		case old == 0 && now != 0:
			shift++
		case old != 0 && now == 0:
			shift--
		}
	}
	return shift
}

// Size12 is |Q1 − Q2| on the delta's subinstance; Size21 the reverse.
func (r *DeltaResult) Size12() int { return r.size12 }

// Size21 is |Q2 − Q1| on the delta's subinstance.
func (r *DeltaResult) Size21() int { return r.size21 }

// Disagrees reports whether the queries differ on the delta's subinstance.
func (r *DeltaResult) Disagrees() bool { return r.size12 > 0 || r.size21 > 0 }

// Diff12 materializes Q1 − Q2 on the delta's subinstance. After this
// result was committed its delta is already folded into the base, so the
// base materializes as-is; a result superseded by another commit returns
// ErrStaleDelta (re-applying its delta against the advanced base would
// double-count the changes).
func (r *DeltaResult) Diff12() (*relation.Relation, error) {
	return r.materialize(r.p.top12)
}

// Diff21 materializes Q2 − Q1 on the delta's subinstance.
func (r *DeltaResult) Diff21() (*relation.Relation, error) {
	return r.materialize(r.p.top21)
}

func (r *DeltaResult) materialize(top *ra.Diff) (*relation.Relation, error) {
	if r.committed {
		return materializeDiff(r.p.state[top].out, nil), nil
	}
	if r.epoch != r.p.epoch {
		return nil, ErrStaleDelta
	}
	return materializeDiff(r.p.state[top].out, r.deltas[top]), nil
}

// Commit folds the delta into the retained state: the delta's updated
// instance becomes the new base, and subsequent ApplyDelta calls are
// relative to it. Insertions are folded into the base Database, assigning
// fresh TupleIDs in the order they were passed to ApplyDelta (see
// InsertedIDs), so later deltas can delete them by id. A result computed
// before another Commit advanced the state returns ErrStaleDelta —
// committing it would apply changes against the wrong base.
func (r *DeltaResult) Commit() error {
	if r.epoch != r.p.epoch {
		return ErrStaleDelta
	}
	for _, n := range r.p.nodes {
		r.p.state[n].commit(r.deltas[n], r.groups[n])
	}
	for _, id := range r.removed {
		r.p.removed[id] = true
	}
	if len(r.inserts) > 0 {
		r.insertedIDs = make([]relation.TupleID, 0, len(r.inserts))
		for _, ins := range r.inserts {
			r.insertedIDs = append(r.insertedIDs, r.p.db.Insert(ins.Rel, ins.Tuple))
		}
	}
	r.p.liveSize += len(r.inserts) - len(r.removed)
	r.p.live12, r.p.live21 = r.size12, r.size21
	r.p.epoch++
	r.committed = true
	return nil
}
