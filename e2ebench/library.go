package main

// The two library workloads, course-explain and tpch-agg. One operation is
// ratest.ParseQuery ×2, ratest.ExplainContext with automatic dispatch and
// the schema's keys and foreign keys, then ratest.FormatCounterexample. One
// caller runs whole passes over the pair list in a closed loop.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/relation"
	"repro/internal/tpch"
)

const (
	courseSize        = 2000   // |D| of the course instance
	coursePerQuestion = 4      // bank mutants kept per question
	tpchSF            = 0.0005 // TPC-H scale factor; tpch.Generate hangs below 0.0004
)

// tpchMutants is how many disagreeing mutants each TPC-H query contributes
// beside its hand-written wrong variants. The cheap queries contribute most,
// so that the median and the tail each sit inside a cluster of like
// operations rather than between two unlike ones. Q21-S contributes none:
// its first mutants change the numwait threshold, which sends Agg-Opt to
// Agg-Basic, whose SMT search then takes tens of seconds to minutes.
var tpchMutants = map[string]int{"Q4": 8, "Q16": 8, "Q18": 4, "Q21": 2, "Q21-S": 0}

// pair is one (reference, wrong) query pair, as RA text.
type pair struct {
	group, desc string
	q1, q2      string
}

// suite builds a library workload's inputs from the seed.
type suite struct {
	name   string
	groups []string
	// generate builds the instance the program runs on; the answer checks
	// call it again for the benchmark's own copy.
	generate func() *relation.Database
	// bank lists the pairs that disagree on the instance.
	bank func(db *relation.Database) ([]pair, error)
	cons []relation.Constraint
}

func courseSuite(seed int64) suite {
	s := suite{name: "course-explain", cons: course.Constraints()}
	for _, q := range course.Questions() {
		s.groups = append(s.groups, q.ID)
	}
	s.generate = func() *relation.Database { return course.GenerateDB(courseSize, seed) }
	s.bank = func(db *relation.Database) ([]pair, error) {
		found, err := course.DiscoveredWrong(db, course.WrongQueryBank(db, coursePerQuestion))
		if err != nil {
			return nil, err
		}
		correct := map[string]string{}
		for _, q := range course.Questions() {
			correct[q.ID] = q.Correct.String()
		}
		var pairs []pair
		for _, w := range found {
			pairs = append(pairs, pair{w.Question, w.Desc, correct[w.Question], w.Query.String()})
		}
		return pairs, nil
	}
	return s
}

// tpchSuite: each query contributes its hand-written wrong variants and
// its first tpchMutants mutants, in the mutation package's order, that
// disagree with it on the instance.
func tpchSuite(seed int64) suite {
	s := suite{name: "tpch-agg", cons: tpch.Constraints()}
	for _, q := range tpch.All() {
		s.groups = append(s.groups, q.Name)
	}
	s.generate = func() *relation.Database { return tpch.Generate(tpchSF, seed) }
	s.bank = func(db *relation.Database) ([]pair, error) {
		var pairs []pair
		for _, qs := range tpch.All() {
			seen := map[string]bool{qs.Correct.String(): true}
			disagrees := func(q ratest.Query) bool {
				if seen[q.String()] {
					return false
				}
				seen[q.String()] = true
				eq, err := ratest.Equivalent(qs.Correct, q, db, nil)
				return err == nil && !eq
			}
			for i, w := range qs.Wrong {
				if disagrees(w) {
					pairs = append(pairs, pair{qs.Name, fmt.Sprintf("W%d", i+1), qs.Correct.String(), w.String()})
				}
			}
			n := 0
			for _, m := range mutation.Mutants(qs.Correct) {
				if n == tpchMutants[qs.Name] {
					break
				}
				if disagrees(m.Query) {
					pairs = append(pairs, pair{qs.Name, m.Desc, qs.Correct.String(), m.Query.String()})
					n++
				}
			}
		}
		return pairs, nil
	}
	return s
}

// opResult is what one operation returned, kept for the checks that run
// after the timed window.
type opResult struct {
	pair    int
	ce      *ratest.Counterexample
	stats   *ratest.Stats
	text    string
	latency time.Duration
}

type library struct {
	s     suite
	db    *relation.Database
	pairs []pair
	opts  *ratest.Options
}

// op runs one operation; with a tracer on, it records the layer spans.
func (l *library) op(i int, tr *tracer, opID int) (opResult, error) {
	p := l.pairs[i]
	start := time.Now()
	t := start
	q1, err := ratest.ParseQuery(p.q1)
	if err != nil {
		return opResult{}, err
	}
	t1 := time.Now()
	q2, err := ratest.ParseQuery(p.q2)
	if err != nil {
		return opResult{}, err
	}
	t2 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	ce, st, err := ratest.ExplainContext(ctx, q1, q2, l.db, l.opts)
	cancel()
	if err != nil {
		return opResult{}, fmt.Errorf("%s %s: %w", p.group, p.desc, err)
	}
	t3 := time.Now()
	text := ratest.FormatCounterexample(q1, q2, ce, nil)
	end := time.Now()
	if tr.on {
		root := tr.record("op", opID, -1, start, end)
		tr.record("raparser.parse", opID, root, t, t1)
		tr.record("raparser.parse", opID, root, t1, t2)
		ex := tr.record("core.explain", opID, root, t2, t3)
		tr.layout(ex, opID, t2, []string{"engine.raw_eval", "engine.prov_eval", "core.solver"},
			[]time.Duration{st.RawEvalTime, st.ProvEvalTime, st.SolverTime})
		tr.record("ratest.render", opID, root, t3, end)
	}
	return opResult{pair: i, ce: ce, stats: st, text: text, latency: end.Sub(start)}, nil
}

// pass runs every pair once, in order.
func (l *library) pass(tr *tracer, opID *int, w *window, keep func(opResult)) {
	for i := range l.pairs {
		r, err := l.op(i, tr, *opID)
		*opID++
		w.attempted++
		if err != nil {
			w.failed++
			fmt.Println("failed:", err)
			continue
		}
		w.lat = append(w.lat, r.latency)
		keep(r)
	}
}

// measure runs whole passes until the window has lasted seconds; each pass
// is one slice.
func (l *library) measure(seconds float64, tr *tracer, keep func(opResult)) *window {
	w := &window{}
	opID := 0
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		a, f, n := w.attempted, w.failed, len(w.lat)
		cpu0, t0 := selfCPU(), time.Now()
		l.pass(tr, &opID, w, keep)
		w.slices = append(w.slices, slice{dur: time.Since(t0), cpu: selfCPU() - cpu0,
			attempted: w.attempted - a, completed: w.attempted - a - (w.failed - f), lat: w.lat[n:]})
	}
	return w
}

// setUp generates the instance, builds the pair list and runs one untimed
// warm-up pass, whose failures count in the result like those of the timed
// passes.
func setUp(s suite) (*library, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	db := s.generate()
	t.generate = time.Since(start).Seconds()
	b := time.Now()
	pairs, err := s.bank(db)
	if err != nil {
		return nil, t, err
	}
	if len(pairs) == 0 {
		return nil, t, fmt.Errorf("%s: no disagreeing pairs on the instance", s.name)
	}
	t.bank = time.Since(b).Seconds()
	l := &library{s: s, db: db, pairs: pairs, opts: &ratest.Options{Constraints: s.cons}}
	wu := time.Now()
	w := &window{}
	opID := 0
	l.pass(newTracer(false), &opID, w, func(opResult) {})
	t.warmup = time.Since(wu).Seconds()
	t.total = time.Since(start).Seconds()
	t.attempted, t.failed = w.attempted, w.failed
	return l, t, nil
}

func runLibrary(cfg config, s suite) (*result, error) {
	var l *library
	var times []setupTimes
	for i := 0; i < setupRepeats; i++ {
		var t setupTimes
		var err error
		// Free the previous set-up before timing the next.
		l = nil
		runtime.GC()
		if l, t, err = setUp(s); err != nil {
			return nil, err
		}
		times = append(times, t)
	}
	setupTotals, setupParts, setupAttempted, setupFailed := medianSetup(times)
	counts := map[string]int{}
	for _, p := range l.pairs {
		counts[p.group]++
	}
	fingerprint(l.fingerprint(), s.groups, counts)

	var results []opResult
	keep := func(r opResult) { results = append(results, r) }
	res := &result{Attempted: setupAttempted, Failed: setupFailed}
	if !cfg.trace {
		w := l.measure(cfg.seconds, newTracer(false), keep)
		w.ceSizes = ceSizes(results)
		rss, err := peakRSS("self")
		if err != nil {
			return nil, err
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
		res.Metrics = endToEnd(w, setupTotals, rss)
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plain := l.measure(cfg.seconds/2, newTracer(false), keep)
		runtime.ReadMemStats(&m1)
		tr := newTracer(true)
		var traced []opResult
		w := l.measure(cfg.seconds/2, tr, func(r opResult) { keep(r); traced = append(traced, r) })
		res.Attempted += plain.attempted + w.attempted
		res.Failed += plain.failed + w.failed
		values := l.layers(tr, traced, w)
		for k, v := range setupParts {
			values[k] = v
		}
		ops := float64(plain.attempted)
		values["ratest.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops
		values["ratest.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
		res.Metrics = layerMetrics(values)
		fmt.Printf("tracing overhead: throughput %.4f/s untraced, %.4f/s traced (%+.2f%%)\n",
			plain.throughput(), w.throughput(), 100*(w.throughput()/plain.throughput()-1))
		path := fmt.Sprintf("%s/%s-seed%d.jsonl", cfg.outDir, s.name, cfg.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	byPair := map[int][]float64{}
	for _, r := range results {
		byPair[r.pair] = append(byPair[r.pair], ms(r.latency))
	}
	fmt.Println("median latency per operation:")
	for i, p := range l.pairs {
		fmt.Printf("  %-6s %-58.58s %10.2f ms (%d runs)\n", p.group, p.desc, median(byPair[i]), len(byPair[i]))
	}
	res.Correct = l.check(results)
	return res, nil
}

// ceSizes maps each distinct pair answered to its counterexample's size.
func ceSizes(rs []opResult) map[string]int {
	out := map[string]int{}
	for _, r := range rs {
		out[fmt.Sprint(r.pair)] = r.ce.Size()
	}
	return out
}

// layers computes the per-layer metrics of a traced window. The layer
// times are means per operation and add up to the mean operation time.
func (l *library) layers(tr *tracer, rs []opResult, w *window) map[string]float64 {
	total, self := tr.totals()
	ops := float64(len(rs))
	per := func(d time.Duration) float64 { return ms(d) / ops }
	v := map[string]float64{
		"raparser.parse_ms":   per(total["raparser.parse"]),
		"engine.raw_eval_ms":  per(total["engine.raw_eval"]),
		"engine.prov_eval_ms": per(total["engine.prov_eval"]),
		"core.solver_ms":      per(total["core.solver"]),
		"core.self_ms":        per(self["core.explain"]),
		"ratest.render_ms":    per(total["ratest.render"]),
	}
	var models, fallback, optimal float64
	for _, r := range rs {
		models += float64(r.stats.ModelsTried)
		if strings.Contains(r.stats.Algorithm, "fallback") || strings.HasPrefix(r.stats.Algorithm, "Agg-Basic") {
			fallback++
		}
		if r.stats.Optimal {
			optimal++
		}
	}
	v["core.models_tried"] = models / ops
	v["core.fallback_share"] = fallback / ops
	v["core.optimal_share"] = optimal / ops
	sum := 0.0
	for _, k := range []string{"raparser.parse_ms", "engine.raw_eval_ms", "engine.prov_eval_ms",
		"core.solver_ms", "core.self_ms", "ratest.render_ms"} {
		sum += v[k]
	}
	fmt.Printf("layer sum %.4f ms = mean operation %.4f ms over %d traced operations\n",
		sum, per(total["op"]), len(rs))

	// Planning and planned-join output, measured standalone: every pair's
	// Q1 and Q2 planned and evaluated once on D under an Observer.
	planMS, rows := map[string]float64{}, map[string]float64{}
	for _, p := range l.pairs {
		for _, q := range []string{p.q1, p.q2} {
			if _, ok := planMS[q]; ok {
				continue
			}
			parsed, err := ratest.ParseQuery(q)
			if err != nil {
				continue
			}
			t := time.Now()
			planned, report, err := engine.ExplainPlan(parsed, l.db, engine.Options{})
			planMS[q] = ms(time.Since(t))
			if err != nil {
				continue
			}
			if _, err := engine.EvalOpts(planned, l.db, nil, engine.Options{NoOptimize: true, NoPlan: true, Observer: report}); err != nil {
				continue
			}
			for _, reg := range report.Regions {
				for _, j := range reg.Joins {
					if j.ActualRows > 0 {
						rows[q] += float64(j.ActualRows)
					}
				}
			}
		}
	}
	for _, p := range l.pairs {
		v["engine.plan_ms"] += (planMS[p.q1] + planMS[p.q2]) / float64(len(l.pairs))
		v["engine.join_rows"] += (rows[p.q1] + rows[p.q2]) / float64(len(l.pairs))
	}
	return v
}

// fingerprint hashes the instance and the operation list.
func (l *library) fingerprint() string {
	h := sha256.New()
	hashDB(h, l.db)
	for _, p := range l.pairs {
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", p.group, p.q1, p.q2)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func hashDB(h io.Writer, db *relation.Database) {
	for _, id := range db.AllIDs() {
		rel, t, _ := db.Lookup(id)
		fmt.Fprintf(h, "%d %s %s\n", id, rel, t)
	}
}

// check verifies every answer against the benchmark's own regeneration of
// the instance and the reference evaluator, and that each pair's answer is
// the same on every pass.
func (l *library) check(rs []opResult) bool {
	ref := l.s.generate()
	ok := true
	first := map[int]string{}
	done := map[string]bool{}
	for _, r := range rs {
		p := l.pairs[r.pair]
		key := answerKey(r.ce)
		if f, seen := first[r.pair]; seen && f != key {
			fmt.Printf("check failed: %s %s: answers differ between passes (%s vs %s)\n", p.group, p.desc, f, key)
			ok = false
		}
		first[r.pair] = key
		if done[fmt.Sprint(r.pair, key)] {
			continue
		}
		done[fmt.Sprint(r.pair, key)] = true
		q1, err1 := ratest.ParseQuery(p.q1)
		q2, err2 := ratest.ParseQuery(p.q2)
		err := checkCounterexample(ref, l.s.cons, q1, q2, r.ce, r.stats.Optimal)
		if err == nil && (err1 != nil || err2 != nil) {
			err = fmt.Errorf("queries do not parse")
		}
		if err == nil && !strings.HasPrefix(r.text, fmt.Sprintf("Counterexample with %d tuples", len(r.ce.IDs))) {
			err = fmt.Errorf("rendering does not announce %d tuples", len(r.ce.IDs))
		}
		if err != nil {
			fmt.Printf("check failed: %s %s: %v\n", p.group, p.desc, err)
			ok = false
		}
	}
	fmt.Printf("checked %d answers (%d distinct) against the reference evaluator: ok=%v\n", len(rs), len(done), ok)
	return ok
}

func answerKey(ce *ratest.Counterexample) string {
	ps := make([]string, 0, len(ce.Params))
	for k, v := range ce.Params {
		ps = append(ps, k+"="+v.String())
	}
	sort.Strings(ps)
	return fmt.Sprint(ce.IDs, ps)
}
