package engine

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the update half of the delta subsystem: ApplyDelta carries
// one signed update — deletions, insertions, and updates expressed as
// delete+insert — through the retained plan in the style of
// Berkholz–Keppeler–Schweikardt's FO+MOD-under-updates maintenance, and the
// delta rules of the four operators whose change is not linear in their
// inputs' changes live here. Beyond the rules:
//
//   - Commit folds insertions into the base Database (assigning fresh
//     TupleIDs in caller order, so replay is deterministic),
//   - retained outputs may grow without bound across commits, so every
//     ApplyDelta re-checks the maxSafeCount invariant that PrepareDiff
//     established: a delta that would push any retained count past the
//     exact-arithmetic bound is refused with ErrNotIncremental before any
//     state changes, and the prepared object remains usable.
//
// A failed ApplyDelta (validation, budget, saturation) never mutates retained
// outputs: deltas are computed into a per-call memo and only Commit folds
// them in. Committing insertions mutates the underlying *relation.Database —
// the prepared object must own its instance (clone it first) when insertions
// are in play; deletion-only users (ShrinkGreedy) share read-only instances.

// Insert is one tuple insertion for ApplyDelta: the base relation name and
// the tuple value. The fresh TupleID is assigned at Commit (see
// DeltaResult.InsertedIDs).
type Insert struct {
	Rel   string
	Tuple relation.Tuple
}

// maxSafeCount bounds every retained derivation count so the exact ℤ-ring
// delta arithmetic cannot overflow int64: with counts ≤ 2³⁰, per-tuple
// delta magnitudes stay ≤ 2³¹, the join rule's pairwise products stay
// ≤ 2⁶², and every partial sum the accumulation loops can form stays well
// inside the int64 range. PrepareDiff establishes the invariant (plans
// beyond it fall back) and ApplyDelta re-checks it before any delta may be
// committed.
const maxSafeCount = 1 << 30

// deltaCtx carries one ApplyDelta computation: the update's removed and
// inserted tuples bucketed by base relation, and the zsum exec whose memo
// collects every node's change (nodes are shared between the two
// difference directions and between Q1 and Q2, so each change is computed
// once per call).
type deltaCtx struct {
	p        *PreparedDiff
	e        *exec[Count]
	removed  map[string][]relation.Tuple
	inserted map[string][]relation.Tuple
	groups   map[ra.Node][]groupChange
	ops      int
}

// pollStep is the delta rules' budget poll: every stopPollStride join pairs
// or group members, check the stop hook so a storm of wide deltas stays
// interruptible.
func (c *deltaCtx) pollStep() error {
	if c.ops++; c.ops%stopPollStride != 0 {
		return nil
	}
	return c.e.opts.poll()
}

// SetStop rebinds the budget stop hook consulted by subsequent ApplyDelta
// calls (and their delta-propagation polls). Long-lived sessions call this
// per request so a prepared object built under one request's budget does not
// keep polling that request's expired context.
func (p *PreparedDiff) SetStop(stop func() error) { p.opts.Stop = stop }

// ApplyDelta propagates one signed update — deleting the given base tuples
// and inserting the given new ones — through the retained plan and reports
// the resulting state of Q1 − Q2 and Q2 − Q1. Updates are expressed as
// delete+insert of the same relation. Ids already removed by committed
// deltas, unknown ids and duplicates are ignored; insertions into unknown
// relations or with the wrong arity are errors. The work is proportional to
// the delta's footprint in each operator, not to the database or plan size.
//
// The result is relative to the current epoch: multiple uncommitted results
// are independent what-if candidates, and Commit folds exactly one of them
// into the base (assigning TupleIDs to its insertions). A delta that would
// saturate a retained derivation count is refused with ErrNotIncremental,
// leaving the prepared state untouched and usable.
func (p *PreparedDiff) ApplyDelta(removed []relation.TupleID, inserted []Insert) (*DeltaResult, error) {
	faults.Inject(faults.EngineEval)
	ids := make([]relation.TupleID, 0, len(removed))
	seen := make(map[relation.TupleID]bool, len(removed))
	for _, id := range removed {
		if seen[id] || p.removed[id] {
			continue
		}
		if _, _, ok := p.db.Lookup(id); !ok {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	// Sorted ids make every delta's tuple order — and therefore committed
	// append order — deterministic; insertions keep caller order so the
	// TupleIDs Commit assigns are deterministic too.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	c := &deltaCtx{
		p:        p,
		removed:  make(map[string][]relation.Tuple),
		inserted: make(map[string][]relation.Tuple),
	}
	for _, id := range ids {
		rel, t, _ := p.db.Lookup(id)
		c.removed[rel] = append(c.removed[rel], t)
	}
	for _, ins := range inserted {
		r := p.db.Relation(ins.Rel)
		if r == nil {
			return nil, fmt.Errorf("engine: insert into unknown relation %q", ins.Rel)
		}
		if len(ins.Tuple) != r.Schema.Arity() {
			return nil, fmt.Errorf("engine: arity mismatch inserting into %q: got %d want %d",
				ins.Rel, len(ins.Tuple), r.Schema.Arity())
		}
		c.inserted[ins.Rel] = append(c.inserted[ins.Rel], ins.Tuple)
	}
	opts := p.opts
	opts.Observer = nil // the planner's cardinalities are the base evaluation's
	c.e = &exec[Count]{
		s: zsum, db: p.db, params: p.params, opts: opts,
		memo:   make(map[ra.Node]*Rel[Count], len(p.state)),
		retain: true, order: make([]ra.Node, 0, len(p.state)), plans: p.plans, delta: c.rule,
	}
	d12, err := c.e.node(p.top12)
	if err != nil {
		return nil, err
	}
	d21, err := c.e.node(p.top21)
	if err != nil {
		return nil, err
	}
	// Insertions grow counts, so the PrepareDiff-time maxSafeCount invariant
	// must be re-established before this delta may ever be committed.
	// p.nodes orders children before parents, which makes the check sound
	// even though all deltas are already computed: an operator's delta
	// arithmetic can only overflow if some child's candidate count already
	// exceeds maxSafeCount, and that child is inspected — with exact values
	// — before its parent's garbage could be believed.
	for _, n := range p.nodes {
		d, base := c.e.memo[n], p.state[n].out
		for i, t := range d.Tuples {
			ch := d.Anns[i]
			if ch <= 0 {
				continue
			}
			if exactAdd(countOf(base, t), ch) > maxSafeCount {
				return nil, fmt.Errorf("%w: delta would push derivation counts past the exact-arithmetic bound", ErrNotIncremental)
			}
		}
	}
	return &DeltaResult{
		p: p, epoch: p.epoch, deltas: c.e.memo, groups: c.groups,
		removed: ids,
		inserts: append([]Insert(nil), inserted...),
		size12:  p.live12 + supportShift(p.state[p.top12].out, d12),
		size21:  p.live21 + supportShift(p.state[p.top21].out, d21),
	}, nil
}

// InsertedIDs returns the TupleIDs Commit assigned to this result's
// insertions, in the order they were passed to ApplyDelta. It is nil before
// Commit.
func (r *DeltaResult) InsertedIDs() []relation.TupleID {
	return r.insertedIDs
}

// rule computes the change of a scan, join, difference or γ node, and of
// every node whose inputs did not change (it does not change either); the
// other operators' changes are the generic operators over their children's.
func (c *deltaCtx) rule(q ra.Node) (*Rel[Count], bool, error) {
	st := c.p.state[q]
	if x, ok := q.(*ra.Rel); ok {
		return c.scan(x, st), true, nil
	}
	unchanged := true
	for _, in := range st.inputs {
		d, err := c.e.node(in)
		if err != nil {
			return nil, true, err
		}
		unchanged = unchanged && d.Len() == 0
	}
	if unchanged {
		return st.none, true, nil
	}
	var d *Rel[Count]
	var err error
	switch x := q.(type) {
	case *ra.Join, *ra.EquiJoin:
		d, err = c.join(q, st)
	case *ra.Diff:
		d, err = c.diff(x, st)
	case *ra.GroupBy:
		d, err = c.groupBy(x, st)
	default:
		return nil, false, nil
	}
	return d, true, err
}

// scan turns the update into count changes of one base relation: −1 per
// removed tuple, +1 per inserted one.
func (c *deltaCtx) scan(x *ra.Rel, st *nodeState) *Rel[Count] {
	if len(c.removed[x.Name]) == 0 && len(c.inserted[x.Name]) == 0 {
		return st.none
	}
	d := NewRel[Count](st.out.Schema)
	for _, t := range c.removed[x.Name] {
		d.Add(zsum, t, -1)
	}
	for _, t := range c.inserted[x.Name] {
		d.Add(zsum, t, 1)
	}
	return d
}

// probe calls fn for every retained position of other, the other side of a
// join, that can match t: the positions idx matches on the key columns of t
// when the join has equi-keys, every position otherwise (cross products,
// residual-only θ-joins — still proportional to one side's size, not the
// whole plan).
func probe(idx *keyIndex, other *Rel[Count], keys []int, t relation.Tuple, fn func(i int) error) error {
	if len(keys) == 0 {
		for i := 0; i < other.Len(); i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range idx.lookup(other.Tuples, t, keys, nil) {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// join expands Δ(L⋈R) = ΔL⋈R + L⋈ΔR + ΔL⋈ΔR over signed counts.
func (c *deltaCtx) join(q ra.Node, st *nodeState) (*Rel[Count], error) {
	lq, rq := joinInputs(q)
	dl, err := c.e.node(lq)
	if err != nil {
		return nil, err
	}
	dr, err := c.e.node(rq)
	if err != nil {
		return nil, err
	}
	l, r := c.p.state[lq].out, c.p.state[rq].out
	j := st.join
	if len(j.spec.lKeys) > 0 {
		j.lIdx.sync(l.Tuples)
		j.rIdx.sync(r.Tuples)
	}
	d := NewRel[Count](j.spec.schema)
	// emit adds one pair's signed contribution. It polls the budget stop
	// hook: the probes are the delta propagation's only superlinear work
	// (an inserted tuple can match everything on the other side), so this
	// is where a wide delta must stay interruptible.
	emit := func(lt, rt relation.Tuple, n Count) error {
		if err := c.pollStep(); err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		t, ok, err := j.spec.pair(lt, rt)
		if err != nil || !ok {
			return err
		}
		d.Add(zsum, t, n)
		return nil
	}
	// ΔL ⋈ R and L ⋈ ΔR each probe the other side's retained index.
	for i, lt := range dl.Tuples {
		if n := dl.Anns[i]; n != 0 {
			if err := probe(j.rIdx, r, j.spec.lKeys, lt, func(ri int) error {
				return emit(lt, r.Tuples[ri], exactMul(n, r.Anns[ri]))
			}); err != nil {
				return nil, err
			}
		}
	}
	for i, rt := range dr.Tuples {
		if n := dr.Anns[i]; n != 0 {
			if err := probe(j.lIdx, l, j.spec.rKeys, rt, func(li int) error {
				return emit(l.Tuples[li], rt, exactMul(l.Anns[li], n))
			}); err != nil {
				return nil, err
			}
		}
	}
	// ΔL ⋈ ΔR, the generic join of the two changes: where both sides
	// changed, the product of two (negative) deletions adds back the
	// doubly-subtracted pairs.
	both, err := c.e.join(j.spec, dl, dr, nil)
	if err != nil {
		return nil, err
	}
	for i, t := range both.Tuples {
		d.Add(zsum, t, both.Anns[i])
	}
	return d, nil
}

// diff applies the counting-semiring Section-6 difference rule
// out(t) = L(t) if R(t) == 0 else 0. The rule is not linear, so the delta
// re-derives exactly the tuples whose left or right count changed, reading
// old counts from the retained child outputs.
func (c *deltaCtx) diff(x *ra.Diff, st *nodeState) (*Rel[Count], error) {
	dl, err := c.e.node(x.L)
	if err != nil {
		return nil, err
	}
	dr, err := c.e.node(x.R)
	if err != nil {
		return nil, err
	}
	l, r := c.p.state[x.L].out, c.p.state[x.R].out
	d := NewRel[Count](st.out.Schema)
	seen := map[string]bool{}
	process := func(t relation.Tuple) {
		k := t.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		oldL := countOf(l, t)
		oldR := countOf(r, t)
		newL := exactAdd(oldL, deltaOf(dl, t))
		newR := exactAdd(oldR, deltaOf(dr, t))
		oldOut, newOut := oldL, newL
		if oldR != 0 {
			oldOut = 0
		}
		if newR != 0 {
			newOut = 0
		}
		if ch := newOut - oldOut; ch != 0 {
			d.Add(zsum, t, ch)
		}
	}
	for _, t := range dl.Tuples {
		process(t)
	}
	for _, t := range dr.Tuples {
		process(t)
	}
	return d, nil
}

// groupIndex is a γ node's retained state for its delta rule: group
// membership (group key → positions in the input's retained output,
// extended on every delta to the positions commits appended since) and the
// current output row of every live group.
type groupIndex struct {
	gIdx, aIdx []int
	members    map[string][]int
	keys       map[string]relation.Tuple
	rows       map[string]relation.Tuple
	synced     int
}

// groupChange records one affected group for Commit: the key and its new
// output row (nil when the group's support emptied).
type groupChange struct {
	key string
	row relation.Tuple
}

func (g *groupIndex) commit(changes []groupChange) {
	for _, ch := range changes {
		if ch.row == nil {
			delete(g.rows, ch.key)
			continue
		}
		g.rows[ch.key] = ch.row
	}
}

// groupBy re-aggregates only the groups whose support intersects the
// input's change; untouched groups keep their retained rows.
func (c *deltaCtx) groupBy(x *ra.GroupBy, st *nodeState) (*Rel[Count], error) {
	din, err := c.e.node(x.In)
	if err != nil {
		return nil, err
	}
	in, out := c.p.state[x.In].out, st.out
	g := st.group
	if g == nil {
		gIdx, aIdx, _, err := groupPlan(x, in.Schema)
		if err != nil {
			return nil, err
		}
		g = &groupIndex{gIdx: gIdx, aIdx: aIdx, members: map[string][]int{},
			keys: map[string]relation.Tuple{}, rows: map[string]relation.Tuple{}}
		// Output rows lead with the group key; counts are 1 for live groups
		// and 0 for the zombies of groups that emptied.
		for i, row := range out.Tuples {
			if out.Anns[i] > 0 {
				g.rows[row[:len(gIdx)].Key()] = row
			}
		}
		st.group = g
	}
	for p := g.synced; p < in.Len(); p++ {
		key := in.Tuples[p].Project(g.gIdx)
		ks := key.Key()
		if _, ok := g.keys[ks]; !ok {
			g.keys[ks] = key
		}
		g.members[ks] = append(g.members[ks], p)
	}
	g.synced = in.Len()
	d := NewRel[Count](out.Schema)
	var changes []groupChange
	var affected []string
	seenKey := map[string]bool{}
	// One pass over the input delta collects the affected group keys and
	// buckets fresh tuples — delta tuples entering the input for the first
	// time (possible when a Diff below resurrects a tuple) — per key, so the
	// per-group work below is linear in the delta instead of rescanning the
	// whole delta once per affected group.
	fresh := map[string][]relation.Tuple{}
	for i, t := range din.Tuples {
		key := t.Project(g.gIdx)
		ks := key.Key()
		if !seenKey[ks] {
			seenKey[ks] = true
			affected = append(affected, ks)
			if _, ok := g.keys[ks]; !ok {
				g.keys[ks] = key
			}
		}
		if din.Anns[i] > 0 && in.Lookup(t) < 0 {
			fresh[ks] = append(fresh[ks], t)
		}
	}
	for _, ks := range affected {
		// Current support of the group: retained members whose new count
		// stays positive, plus the fresh tuples bucketed above.
		var members []relation.Tuple
		for _, p := range g.members[ks] {
			if err := c.pollStep(); err != nil {
				return nil, err
			}
			t := in.Tuples[p]
			if exactAdd(in.Anns[p], deltaOf(din, t)) > 0 {
				members = append(members, t)
			}
		}
		members = append(members, fresh[ks]...)
		var newRow relation.Tuple
		if len(members) > 0 {
			row := g.keys[ks].Clone()
			for i, a := range x.Aggs {
				v, err := computeAgg(a.Func, g.aIdx[i], members)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
			newRow = row
		}
		oldRow := g.rows[ks]
		if oldRow == nil && newRow == nil {
			continue
		}
		if oldRow != nil && newRow != nil && oldRow.Identical(newRow) {
			continue
		}
		if oldRow != nil {
			d.Add(zsum, oldRow, -1)
		}
		if newRow != nil {
			d.Add(zsum, newRow, 1)
		}
		changes = append(changes, groupChange{key: ks, row: newRow})
	}
	if c.groups == nil {
		c.groups = map[ra.Node][]groupChange{}
	}
	c.groups[x] = changes
	return d, nil
}
