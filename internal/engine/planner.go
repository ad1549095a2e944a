package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
)

// This file is the cost-based join planner that sits between Optimize and
// the physical operators. It finds maximal conjunctive join regions (pure
// Join subtrees; unions, differences, γ and residual θ-predicates are
// planning barriers), flattens each into a join hypergraph, estimates
// intermediate sizes with the classic distinct-count formula
// |A ⋈ B| = |A|·|B| / ∏ max(d_A, d_B), and reorders the region — exact DP
// over connected subsets up to PlanDPMaxLeaves inputs, greedy above that —
// into a bushy tree of positional EquiJoin nodes, closed off by a Permute
// restoring the original output columns. When the hypergraph GYO-reduces to
// a join tree (α-acyclic), a Yannakakis pass first semi-join reduces the
// leaves along that tree, so no join input carries tuples that cannot reach
// the output. The planner only reorders and filters — it never changes
// which input pairs ⊗-combine into which output tuples — so annotations are
// preserved for every semiring.

// planMinLeaves is the smallest join region worth reordering: with two
// inputs there is only one join (up to commutation the hash join does not
// care about).
const planMinLeaves = 3

// planMaxLeaves caps region size (leaf sets are bitmasks).
const planMaxLeaves = 64

// PlanDPMaxLeaves bounds the exact dynamic program over connected subsets
// (~3^n subset splits); larger regions use the greedy min-intermediate
// heuristic.
var PlanDPMaxLeaves = 10

// PlanRefuseFactor guards the pre-execution budget check: the planner
// refuses to execute only when its best order's estimated peak intermediate
// exceeds the row budget by this factor, leaving headroom for estimation
// error (a misestimate must not reject a feasible query).
var PlanRefuseFactor = 8.0

// Statistics-free defaults (unknown base relations, leaves the estimator
// cannot peel to a base relation, planning without an instance).
const (
	defaultLeafRows = 1000.0
	defaultDistinct = 100.0
)

// PlanReport collects what the planner decided — per join region: the leaf
// inputs, the chosen order, per-join cardinality estimates, whether the
// acyclic (Yannakakis) path fired — and, when the planned tree is then
// executed with the same report attached as Options.Observer, the actual
// join cardinalities.
type PlanReport struct {
	Regions []*RegionReport

	// byNode finds a join's reports by its planned node. A node the
	// evaluation shares carries the reports of every copy merged into it.
	byNode map[ra.Node][]*JoinReport
}

// RegionReport describes one join region.
type RegionReport struct {
	// Leaves labels the region's inputs in original (parser) order.
	Leaves []string
	// Order is the chosen join tree, e.g. "((customer ⋈ orders) ⋈ lineitem)".
	Order string
	// Planned is false when the region was left in its original shape;
	// Reason says why.
	Planned bool
	Reason  string
	// Acyclic reports whether the GYO reduction succeeded and the
	// Yannakakis semi-join pass was applied; SemiJoins counts the emitted
	// semi-join operators (2·(n−1) for a full reduction).
	Acyclic   bool
	SemiJoins int
	// EstPeakRows is the largest estimated intermediate of the chosen tree.
	EstPeakRows float64
	// Joins lists the region's joins bottom-up (left subtree first).
	Joins []*JoinReport
}

// JoinReport is one join of a planned region.
type JoinReport struct {
	// Expr renders the join's subtree, e.g. "(customer ⋈ orders)".
	Expr string
	// EstRows is the planner's cardinality estimate for this join's output.
	EstRows float64
	// ActualRows is the observed output cardinality, filled in when the
	// planned tree executes under an Options.Observer; -1 until then.
	ActualRows int64
}

func (r *PlanReport) noteJoin(n ra.Node, jr *JoinReport) {
	if r.byNode == nil {
		r.byNode = map[ra.Node][]*JoinReport{}
	}
	r.byNode[n] = append(r.byNode[n], jr)
}

// alias lets the node that replaces a planned node in the evaluated DAG
// fill in that node's reports too. The planned node keeps them, so a tree
// evaluated again under the same report is filled in again.
func (r *PlanReport) alias(from, to ra.Node) {
	if r == nil {
		return
	}
	for _, jr := range r.byNode[from] {
		if !slices.Contains(r.byNode[to], jr) {
			r.byNode[to] = append(r.byNode[to], jr)
		}
	}
}

// observe records an executed join node's actual output cardinality.
func (r *PlanReport) observe(n ra.Node, rows int) {
	if r == nil {
		return
	}
	for _, jr := range r.byNode[n] {
		jr.ActualRows = int64(rows)
	}
}

// Plan applies the cost-based join planner to an (already optimized) query
// against an instance, with the instance's cached statistics (StatsOf). The
// returned tree evaluates to exactly the same annotated result as q under
// every semiring; the only error is a pre-execution ErrRowBudget when even
// the best join order's estimated peak intermediate overshoots the row
// budget by PlanRefuseFactor. Planning a nil database, or an already planned
// tree, is a no-op.
func Plan(q ra.Node, db *relation.Database, opts Options) (ra.Node, error) {
	return planWith(q, db, opts, true)
}

// ExplainPlan optimizes and plans a query, returning the planned tree and
// its report. Executing the returned tree with Options{NoOptimize: true,
// NoPlan: true, Observer: report} fills in the actual cardinalities.
func ExplainPlan(q ra.Node, db *relation.Database, opts Options) (ra.Node, *PlanReport, error) {
	report := &PlanReport{}
	opts.Observer = report
	if !opts.NoOptimize {
		q = Optimize(q, Catalog{DB: db})
	}
	planned, err := planWith(q, db, opts, true)
	return planned, report, err
}

// planWith is the planner entry point. allowSemi gates the Yannakakis
// semi-join pass: the delta-incremental prepared path must plan without it
// (a semi-join-reduced retained state is not sound under deletions — a
// deletion elsewhere can turn a retained tuple dangling, but never the
// other way around, so the reduction cannot be maintained by local deltas).
// The join order itself is shared by every path.
func planWith(q ra.Node, db *relation.Database, opts Options, allowSemi bool) (ra.Node, error) {
	if db == nil {
		return q, nil
	}
	p := &planner{
		cat:       Catalog{DB: db},
		stats:     StatsOf(db),
		budget:    opts.rowBudget(),
		allowSemi: allowSemi,
		report:    opts.Observer,
	}
	return p.walk(q)
}

type planner struct {
	cat       Catalog
	stats     *Stats
	budget    int
	allowSemi bool
	report    *PlanReport
}

// walk rebuilds the tree, planning every maximal join region it meets.
// Nodes the planner itself emits (EquiJoin, Semi, Permute) are returned
// unchanged, which makes planning idempotent.
func (p *planner) walk(n ra.Node) (ra.Node, error) {
	switch x := n.(type) {
	case *ra.Join:
		return p.region(x)
	case *ra.Select:
		in, err := p.walk(x.In)
		if err != nil {
			return nil, err
		}
		if in == x.In {
			return x, nil
		}
		return &ra.Select{Pred: x.Pred, In: in}, nil
	case *ra.Project:
		in, err := p.walk(x.In)
		if err != nil {
			return nil, err
		}
		if in == x.In {
			return x, nil
		}
		return &ra.Project{Cols: x.Cols, In: in}, nil
	case *ra.Rename:
		in, err := p.walk(x.In)
		if err != nil {
			return nil, err
		}
		if in == x.In {
			return x, nil
		}
		return &ra.Rename{As: x.As, In: in}, nil
	case *ra.Union:
		l, err := p.walk(x.L)
		if err != nil {
			return nil, err
		}
		r, err := p.walk(x.R)
		if err != nil {
			return nil, err
		}
		if l == x.L && r == x.R {
			return x, nil
		}
		return &ra.Union{L: l, R: r}, nil
	case *ra.Diff:
		l, err := p.walk(x.L)
		if err != nil {
			return nil, err
		}
		r, err := p.walk(x.R)
		if err != nil {
			return nil, err
		}
		if l == x.L && r == x.R {
			return x, nil
		}
		return &ra.Diff{L: l, R: r}, nil
	case *ra.GroupBy:
		in, err := p.walk(x.In)
		if err != nil {
			return nil, err
		}
		if in == x.In {
			return x, nil
		}
		return &ra.GroupBy{GroupCols: x.GroupCols, Aggs: x.Aggs, In: in}, nil
	}
	return n, nil
}

// region plans the maximal join region rooted at j, or keeps its shape
// (still planning nested regions inside the join's subtrees) when the
// region is not a reorderable conjunctive equi-join component.
func (p *planner) region(j *ra.Join) (ra.Node, error) {
	g, ok := ra.FlattenJoin(j, p.cat)
	if !ok {
		return p.keepJoin(j, "not a pure conjunctive equi-join region (residual θ-predicate or cross product)")
	}
	if len(g.Leaves) < planMinLeaves {
		return p.keepJoin(j, "")
	}
	if len(g.Leaves) > planMaxLeaves {
		return p.keepJoin(j, fmt.Sprintf("region has %d inputs; planner cap is %d", len(g.Leaves), planMaxLeaves))
	}
	return p.planRegion(j, g)
}

// keepJoin leaves a join node's shape alone but recurses into its subtrees
// (they may contain plannable regions below barriers or failed conditions).
// A non-empty reason is reported for observability.
func (p *planner) keepJoin(j *ra.Join, reason string) (ra.Node, error) {
	if reason != "" && p.report != nil {
		p.report.Regions = append(p.report.Regions, &RegionReport{
			Planned: false,
			Reason:  reason,
			Order:   opName(j),
		})
	}
	l, err := p.walk(j.L)
	if err != nil {
		return nil, err
	}
	r, err := p.walk(j.R)
	if err != nil {
		return nil, err
	}
	if l == j.L && r == j.R {
		return j, nil
	}
	return &ra.Join{L: l, R: r, Cond: j.Cond}, nil
}

func (p *planner) planRegion(orig *ra.Join, g *ra.JoinGraph) (ra.Node, error) {
	n := len(g.Leaves)
	// Plan inside each leaf first: a barrier leaf (π, ∪, −, γ over further
	// joins) may contain nested regions of its own.
	leafNodes := make([]ra.Node, n)
	for i, lf := range g.Leaves {
		ln, err := p.walk(lf.Node)
		if err != nil {
			return nil, err
		}
		leafNodes[i] = ln
	}
	info := p.leafInfos(g)
	classes := buildClasses(g, info)
	var tree *ptree
	if n <= PlanDPMaxLeaves {
		tree = dpOrder(n, info, classes)
	} else {
		tree = greedyOrder(n, info, classes)
	}
	if tree == nil {
		// FlattenJoin guarantees a connected hypergraph, so this is a
		// defensive fallback only.
		return p.keepJoin(orig, "no connected join order found")
	}

	// Acyclic fast path: GYO-reduce; when a join tree exists, Yannakakis
	// semi-join reduce the leaves along it (children into parents bottom-up,
	// parents into children top-down — a full reducer).
	acyclic := false
	semis := 0
	reduced := leafNodes
	if p.allowSemi {
		if order, ok := gyoJoinTree(n, classes); ok {
			acyclic = true
			reduced, semis = yannakakisReduce(leafNodes, g, classes, order)
		}
	}

	// Pre-execution budget check (satellite fix): when even the cheapest
	// order is estimated to blow the row budget by PlanRefuseFactor, fail
	// with the structured budget error now instead of mid-join. Skipped on
	// the acyclic path: the semi-join reduction can shrink inputs far below
	// anything the unreduced estimates predict.
	peak := treePeak(tree)
	if !acyclic && peak > PlanRefuseFactor*float64(p.budget) {
		return nil, fmt.Errorf("%w: planner estimates a %.3g-row intermediate for the best join order (budget %d rows)", ErrRowBudget, peak, p.budget)
	}

	var rr *RegionReport
	if p.report != nil {
		labels := make([]string, n)
		for i, lf := range g.Leaves {
			labels[i] = leafLabel(lf.Node)
		}
		rr = &RegionReport{
			Leaves:      labels,
			Order:       orderString(tree, g),
			Planned:     true,
			Acyclic:     acyclic,
			SemiJoins:   semis,
			EstPeakRows: peak,
		}
		p.report.Regions = append(p.report.Regions, rr)
	}

	a := &assembler{g: g, leaves: reduced, classes: classes, enforced: make([]bool, len(g.Eqs)), rr: rr, report: p.report}
	root, cols, err := a.build(tree)
	if err != nil {
		return nil, err
	}
	for ei := range g.Eqs {
		if !a.enforced[ei] {
			// Every original equality has both columns inside the full
			// region, so assembly must have enforced it; anything else is a
			// planner bug — keep the original tree rather than risk a wrong
			// result.
			return p.keepJoin(orig, "internal: join constraint not covered by the reordered tree")
		}
	}
	// Restore the original output columns (and column order).
	pos := make(map[int]int, len(cols))
	for i, c := range cols {
		pos[c] = i
	}
	idxs := make([]int, len(g.Out))
	identity := len(cols) == len(g.Out)
	for i, c := range g.Out {
		idxs[i] = pos[c]
		if idxs[i] != i {
			identity = false
		}
	}
	if identity {
		return root, nil
	}
	return &ra.Permute{In: root, Idxs: idxs}, nil
}

// leafInfo is the planner's estimate of one leaf input: row count and
// per-column distinct counts (≥ 1, ≤ rows after clamping).
type leafInfo struct {
	rows float64
	dist []float64
}

func (p *planner) leafInfos(g *ra.JoinGraph) []leafInfo {
	out := make([]leafInfo, len(g.Leaves))
	for i, lf := range g.Leaves {
		rows, dist := p.leafStats(lf.Node)
		if rows < 1 {
			rows = 1
		}
		if len(dist) != lf.Schema.Arity() {
			dist = fillDist(lf.Schema.Arity(), defaultDistinct)
		}
		for c := range dist {
			if dist[c] > rows {
				dist[c] = rows
			}
			if dist[c] < 1 {
				dist[c] = 1
			}
		}
		out[i] = leafInfo{rows: rows, dist: dist}
	}
	return out
}

// leafStats estimates a leaf's cardinality by peeling the wrappers the
// optimizer leaves on base relations — renames preserve positions,
// projections remap them (and deduplicate under set semantics), selections
// scale rows by per-conjunct selectivities. Anything else (a barrier
// operator) falls back to the statistics-free defaults.
func (p *planner) leafStats(n ra.Node) (float64, []float64) {
	switch x := n.(type) {
	case *ra.Rel:
		rs := p.stats.Rel(x.Name)
		if rs == nil {
			if schema, err := ra.OutSchema(n, p.cat); err == nil {
				return defaultLeafRows, fillDist(schema.Arity(), defaultDistinct)
			}
			return defaultLeafRows, nil
		}
		rows := float64(rs.Rows)
		dist := make([]float64, len(rs.Cols))
		for c, cs := range rs.Cols {
			dist[c] = cs.Distinct
		}
		return rows, dist
	case *ra.Rename:
		return p.leafStats(x.In)
	case *ra.Project:
		rows, dist := p.leafStats(x.In)
		childSchema, err := ra.OutSchema(x.In, p.cat)
		if err != nil || len(dist) != childSchema.Arity() {
			break
		}
		idxs, _, err := projectPlan(x, childSchema)
		if err != nil {
			break
		}
		out := make([]float64, len(idxs))
		prod := 1.0
		for i, j := range idxs {
			out[i] = dist[j]
			if prod < rows {
				prod *= math.Max(dist[j], 1)
			}
		}
		// Set-semantics projection deduplicates: at most the product of the
		// kept columns' distinct counts survives.
		if prod < rows {
			rows = prod
		}
		return rows, out
	case *ra.Select:
		rows, dist := p.leafStats(x.In)
		schema, err := ra.OutSchema(x.In, p.cat)
		if err != nil || len(dist) != schema.Arity() {
			break
		}
		for _, c := range ra.Conjuncts(x.Pred) {
			sel, eqCol := selectivityOf(c, schema, dist)
			rows *= sel
			if eqCol >= 0 {
				dist[eqCol] = 1
			}
		}
		if rows < 1 {
			rows = 1
		}
		return rows, dist
	}
	if schema, err := ra.OutSchema(n, p.cat); err == nil {
		return defaultLeafRows, fillDist(schema.Arity(), defaultDistinct)
	}
	return defaultLeafRows, nil
}

// selectivityOf estimates one conjunct's selectivity: column = literal
// keeps 1/distinct of the rows (and collapses the column to one value,
// reported via eqCol), range comparisons keep a third, everything else
// half. Parameters count as literals — their value is unknown but the
// shape of the estimate is the same.
func selectivityOf(e ra.Expr, schema relation.Schema, dist []float64) (sel float64, eqCol int) {
	eqCol = -1
	c, ok := e.(*ra.Cmp)
	if !ok {
		return 0.5, -1
	}
	attr := attrCol(c.L, schema)
	other := c.R
	if attr < 0 {
		attr = attrCol(c.R, schema)
		other = c.L
	}
	if attr < 0 {
		return 0.5, -1
	}
	switch other.(type) {
	case *ra.Const, *ra.Param:
	default:
		// column-vs-column or computed comparand
		if c.Op == ra.EQ {
			return 1 / math.Max(dist[attr], 1), -1
		}
		return 1.0 / 3, -1
	}
	switch c.Op {
	case ra.EQ:
		return 1 / math.Max(dist[attr], 1), attr
	case ra.NE:
		return 1, -1
	case ra.LT, ra.LE, ra.GT, ra.GE:
		return 1.0 / 3, -1
	}
	return 0.5, -1
}

func attrCol(e ra.Expr, schema relation.Schema) int {
	a, ok := e.(*ra.AttrRef)
	if !ok {
		return -1
	}
	i, err := schema.Resolve(a.Name)
	if err != nil {
		return -1
	}
	return i
}

func fillDist(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// jclass is one equivalence class of join columns (a hypergraph vertex):
// the global columns the region's equalities force equal, the set of leaves
// touched, and the per-leaf minimum distinct count of its member columns.
type jclass struct {
	cols     []int
	leafMask uint64
	dist     []float64
}

// buildClasses unions the equality pairs into equivalence classes. Every
// class spans at least two leaves (equalities always cross leaves).
func buildClasses(g *ra.JoinGraph, info []leafInfo) []jclass {
	parent := make([]int, len(g.Cols))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, eq := range g.Eqs {
		a, b := find(eq[0]), find(eq[1])
		if a != b {
			parent[b] = a
		}
	}
	idx := map[int]int{}
	var classes []jclass
	for col := range g.Cols {
		// Only columns that appear in some equality belong to a class.
		if !colInEqs(g, col) {
			continue
		}
		root := find(col)
		ci, ok := idx[root]
		if !ok {
			idx[root] = len(classes)
			classes = append(classes, jclass{dist: fillDist(len(g.Leaves), math.Inf(1))})
			ci = idx[root]
		}
		leaf := g.LeafOf(col)
		c := &classes[ci]
		c.cols = append(c.cols, col)
		c.leafMask |= 1 << leaf
		d := info[leaf].dist[col-g.Leaves[leaf].Off]
		if d < c.dist[leaf] {
			c.dist[leaf] = d
		}
	}
	return classes
}

func colInEqs(g *ra.JoinGraph, col int) bool {
	for _, eq := range g.Eqs {
		if eq[0] == col || eq[1] == col {
			return true
		}
	}
	return false
}

// classDistinct estimates the distinct count of a class within a subplan:
// the smallest member-column distinct among the subplan's leaves, capped by
// the subplan's estimated rows.
func classDistinct(c *jclass, mask uint64, rows float64) float64 {
	d := math.Inf(1)
	m := c.leafMask & mask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if c.dist[i] < d {
			d = c.dist[i]
		}
	}
	if rows < d {
		d = rows
	}
	if d < 1 || math.IsInf(d, 1) {
		d = 1
	}
	return d
}

// estimateJoin is the classic distinct-count formula over every class
// spanning the two sides.
func estimateJoin(classes []jclass, a, b uint64, aRows, bRows float64) float64 {
	rows := aRows * bRows
	for i := range classes {
		c := &classes[i]
		if c.leafMask&a != 0 && c.leafMask&b != 0 {
			da := classDistinct(c, a, aRows)
			db := classDistinct(c, b, bRows)
			rows /= math.Max(da, db)
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func joinableMasks(classes []jclass, a, b uint64) bool {
	for i := range classes {
		if classes[i].leafMask&a != 0 && classes[i].leafMask&b != 0 {
			return true
		}
	}
	return false
}

// ptree is a join order: a binary tree over leaf indices with per-subtree
// cardinality estimates.
type ptree struct {
	leaf int // leaf index; -1 for internal nodes
	l, r *ptree
	mask uint64
	rows float64
}

func leafTree(i int, info []leafInfo) *ptree {
	return &ptree{leaf: i, mask: 1 << i, rows: info[i].rows}
}

// dpOrder is the exact dynamic program: best[mask] is the cheapest bushy
// tree joining the leaves of mask, where cost is the sum of estimated
// intermediate sizes and only connected splits (some class spans both
// halves) are considered. Submask enumeration is canonicalized by requiring
// the half containing mask's lowest bit to be the left side.
func dpOrder(n int, info []leafInfo, classes []jclass) *ptree {
	full := uint64(1)<<n - 1
	type entry struct {
		rows, cost float64
		l, r       uint64
	}
	best := make([]entry, full+1)
	for m := range best {
		best[m].cost = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		best[1<<i] = entry{rows: info[i].rows}
	}
	for mask := uint64(3); mask <= full; mask++ {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		lsb := mask & -mask
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub&lsb == 0 {
				continue
			}
			other := mask ^ sub
			if math.IsInf(best[sub].cost, 1) || math.IsInf(best[other].cost, 1) {
				continue
			}
			if !joinableMasks(classes, sub, other) {
				continue
			}
			est := estimateJoin(classes, sub, other, best[sub].rows, best[other].rows)
			cost := best[sub].cost + best[other].cost + est
			if cost < best[mask].cost {
				best[mask] = entry{rows: est, cost: cost, l: sub, r: other}
			}
		}
	}
	if math.IsInf(best[full].cost, 1) {
		return nil
	}
	var toTree func(mask uint64) *ptree
	toTree = func(mask uint64) *ptree {
		if bits.OnesCount64(mask) == 1 {
			return leafTree(bits.TrailingZeros64(mask), info)
		}
		e := best[mask]
		return &ptree{leaf: -1, l: toTree(e.l), r: toTree(e.r), mask: mask, rows: e.rows}
	}
	return toTree(full)
}

// greedyOrder repeatedly merges the joinable pair of subplans with the
// smallest estimated join output — the fallback above PlanDPMaxLeaves.
func greedyOrder(n int, info []leafInfo, classes []jclass) *ptree {
	act := make([]*ptree, n)
	for i := range act {
		act[i] = leafTree(i, info)
	}
	for len(act) > 1 {
		bi, bj, bEst := -1, -1, math.Inf(1)
		for i := 0; i < len(act); i++ {
			for j := i + 1; j < len(act); j++ {
				if !joinableMasks(classes, act[i].mask, act[j].mask) {
					continue
				}
				est := estimateJoin(classes, act[i].mask, act[j].mask, act[i].rows, act[j].rows)
				if est < bEst {
					bi, bj, bEst = i, j, est
				}
			}
		}
		if bi < 0 {
			return nil // disconnected (cannot happen for flattened regions)
		}
		merged := &ptree{leaf: -1, l: act[bi], r: act[bj], mask: act[bi].mask | act[bj].mask, rows: bEst}
		act[bi] = merged
		act = append(act[:bj], act[bj+1:]...)
	}
	return act[0]
}

// treePeak is the largest estimated intermediate of a join tree.
func treePeak(t *ptree) float64 {
	if t.leaf >= 0 {
		return 0
	}
	peak := t.rows
	if lp := treePeak(t.l); lp > peak {
		peak = lp
	}
	if rp := treePeak(t.r); rp > peak {
		peak = rp
	}
	return peak
}

// gyoJoinTree runs the GYO reduction on the region's hyperedges (one edge
// per leaf, vertices are the join classes): repeatedly drop vertices that
// occur in a single remaining edge, then remove any edge whose remaining
// vertices are covered by another edge, recording (removed edge, witness)
// as a join-tree edge. The hypergraph is α-acyclic exactly when one edge
// remains; the recorded pairs then form a join tree rooted at the survivor,
// in child-before-parent removal order.
func gyoJoinTree(n int, classes []jclass) ([][2]int, bool) {
	edges := make([]map[int]bool, n)
	for e := range edges {
		edges[e] = map[int]bool{}
	}
	for ci := range classes {
		m := classes[ci].leafMask
		for m != 0 {
			e := bits.TrailingZeros64(m)
			m &= m - 1
			edges[e][ci] = true
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n
	var order [][2]int
	for aliveCount > 1 {
		changed := false
		for ci := range classes {
			cnt, last := 0, -1
			for e := 0; e < n; e++ {
				if alive[e] && edges[e][ci] {
					cnt++
					last = e
				}
			}
			if cnt == 1 {
				delete(edges[last], ci)
				changed = true
			}
		}
		for e := 0; e < n && aliveCount > 1; e++ {
			if !alive[e] {
				continue
			}
			for w := 0; w < n; w++ {
				if w == e || !alive[w] {
					continue
				}
				if subsetOf(edges[e], edges[w]) {
					alive[e] = false
					aliveCount--
					order = append(order, [2]int{e, w})
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return order, aliveCount == 1
}

func subsetOf(a, b map[int]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// yannakakisReduce emits the full-reducer semi-join program over the join
// tree: in removal order every removed child filters its witness parent
// (bottom-up), then in reverse order every fully-reduced parent filters its
// children (top-down). Reduced leaves are shared as a DAG — a parent's
// reduced form appears in each child's chain and in the final join tree —
// which the evaluator de-duplicates by node identity.
func yannakakisReduce(leafNodes []ra.Node, g *ra.JoinGraph, classes []jclass, order [][2]int) ([]ra.Node, int) {
	red := append([]ra.Node(nil), leafNodes...)
	semis := 0
	semi := func(l ra.Node, lLeaf int, r ra.Node, rLeaf int) ra.Node {
		var lk, rk []int
		for ci := range classes {
			c := &classes[ci]
			if c.leafMask&(1<<lLeaf) != 0 && c.leafMask&(1<<rLeaf) != 0 {
				lk = append(lk, repCol(c, lLeaf, g))
				rk = append(rk, repCol(c, rLeaf, g))
			}
		}
		if len(lk) == 0 {
			return l
		}
		semis++
		return &ra.Semi{L: l, R: r, LKeys: lk, RKeys: rk}
	}
	for _, p := range order {
		e, w := p[0], p[1]
		red[w] = semi(red[w], w, red[e], e)
	}
	for i := len(order) - 1; i >= 0; i-- {
		e, w := order[i][0], order[i][1]
		red[e] = semi(red[e], e, red[w], w)
	}
	return red, semis
}

// repCol returns a class's representative column within a leaf, as a
// position in the leaf's schema.
func repCol(c *jclass, leaf int, g *ra.JoinGraph) int {
	for _, col := range c.cols {
		if g.LeafOf(col) == leaf {
			return col - g.Leaves[leaf].Off
		}
	}
	return -1 // unreachable: callers check c.leafMask first
}

// assembler turns a join order into EquiJoin nodes, threading the original
// equality constraints: every equality is enforced as a hash-key pair at
// the lowest tree node where both its columns are available (they always
// land on opposite sides there), and classes spanning a node without a
// crossing original equality contribute a transitively-implied
// representative pair so every join has keys.
type assembler struct {
	g        *ra.JoinGraph
	leaves   []ra.Node
	classes  []jclass
	enforced []bool
	rr       *RegionReport
	report   *PlanReport
}

func (a *assembler) build(t *ptree) (ra.Node, []int, error) {
	if t.leaf >= 0 {
		lf := a.g.Leaves[t.leaf]
		cols := make([]int, lf.Schema.Arity())
		for i := range cols {
			cols[i] = lf.Off + i
		}
		return a.leaves[t.leaf], cols, nil
	}
	ln, lcols, err := a.build(t.l)
	if err != nil {
		return nil, nil, err
	}
	rn, rcols, err := a.build(t.r)
	if err != nil {
		return nil, nil, err
	}
	lpos := make(map[int]int, len(lcols))
	for i, c := range lcols {
		lpos[c] = i
	}
	rpos := make(map[int]int, len(rcols))
	for i, c := range rcols {
		rpos[c] = i
	}
	var lk, rk []int
	crossed := make(map[int]bool) // class index → keyed at this node
	classAt := func(col int) int {
		for ci := range a.classes {
			for _, c := range a.classes[ci].cols {
				if c == col {
					return ci
				}
			}
		}
		return -1
	}
	for ei, eq := range a.g.Eqs {
		if a.enforced[ei] {
			continue
		}
		pa, aInL := lpos[eq[0]]
		pb, bInR := rpos[eq[1]]
		if aInL && bInR {
			lk = append(lk, pa)
			rk = append(rk, pb)
			a.enforced[ei] = true
			crossed[classAt(eq[0])] = true
			continue
		}
		pa2, aInR := rpos[eq[0]]
		pb2, bInL := lpos[eq[1]]
		if bInL && aInR {
			lk = append(lk, pb2)
			rk = append(rk, pa2)
			a.enforced[ei] = true
			crossed[classAt(eq[0])] = true
		}
	}
	for ci := range a.classes {
		c := &a.classes[ci]
		if crossed[ci] || c.leafMask&t.l.mask == 0 || c.leafMask&t.r.mask == 0 {
			continue
		}
		// Transitively implied: the class spans both sides but none of its
		// original equalities cross here. Every member column is equal in
		// the final result, so filtering early on representatives is sound.
		lc, rc := -1, -1
		for _, col := range c.cols {
			if p, ok := lpos[col]; ok && lc < 0 {
				lc = p
			}
			if p, ok := rpos[col]; ok && rc < 0 {
				rc = p
			}
		}
		if lc >= 0 && rc >= 0 {
			lk = append(lk, lc)
			rk = append(rk, rc)
		}
	}
	node := &ra.EquiJoin{L: ln, R: rn, LKeys: lk, RKeys: rk}
	cols := make([]int, 0, len(lcols)+len(rcols))
	cols = append(cols, lcols...)
	cols = append(cols, rcols...)
	if a.rr != nil {
		jr := &JoinReport{Expr: orderString(t, a.g), EstRows: t.rows, ActualRows: -1}
		a.rr.Joins = append(a.rr.Joins, jr)
		a.report.noteJoin(node, jr)
	}
	return node, cols, nil
}

// orderString renders a join tree over leaf labels.
func orderString(t *ptree, g *ra.JoinGraph) string {
	if t.leaf >= 0 {
		return leafLabel(g.Leaves[t.leaf].Node)
	}
	return "(" + orderString(t.l, g) + " ⋈ " + orderString(t.r, g) + ")"
}

// leafLabel is a compact label for a region input.
func leafLabel(n ra.Node) string {
	switch x := n.(type) {
	case *ra.Rel:
		return x.Name
	case *ra.Rename:
		return x.As + "=" + leafLabel(x.In)
	case *ra.Select:
		return "σ(" + leafLabel(x.In) + ")"
	case *ra.Project:
		return "π(" + leafLabel(x.In) + ")"
	}
	if s := opName(n); s != "result" {
		return s
	}
	return strings.TrimPrefix(fmt.Sprintf("%T", n), "*ra.")
}
