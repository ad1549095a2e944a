// Command experiments regenerates every table and figure of the paper's
// evaluation (Sections 7–8) on the in-memory reproduction:
//
//	table1  — poly-time algorithms vs the solver on the Table 1 classes
//	table3  — |D| vs number of wrong queries discovered
//	table4  — SCP (Basic) vs SWP (Optσ): runtime and counterexample size
//	fig3    — query complexity vs per-component time
//	fig4    — data size vs per-component time
//	fig5    — witness size vs solver strategy (Naive-M vs Opt)
//	fig6    — TPC-H aggregate queries: Agg-Basic vs Agg-Opt breakdown
//	fig7    — effect of parameterization on TPC-H Q18
//	study   — user-study simulation (Figures 8–10, Table 5)
//
// Absolute numbers differ from the paper (Python+SQLServer+Z3 vs pure Go),
// but the shapes — who wins, by what factor, where the approaches break —
// are the reproduction targets; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/pool"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/study"
	"repro/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|table3|table4|fig3|fig4|fig5|fig6|fig7|study")
	maxSize := flag.Int("maxsize", 10000, "largest course-instance size (paper: 100000)")
	sf := flag.Float64("sf", 0.001, "TPC-H scale factor (paper: 1.0)")
	perQuestion := flag.Int("mutants", 8, "wrong queries kept per question")
	sample := flag.Int("sample", 12, "wrong queries sampled per measurement")
	workers := flag.Int("workers", pool.DefaultWorkers,
		"worker-pool size for the fan-out loops; use 1 for uncontended per-query timings (parallel runs inflate the per-query latency columns on multi-core machines)")
	plan := flag.Bool("plan", false,
		"print the cost-based join planner's decisions (chosen join order, estimated vs actual cardinalities, acyclic fast path) on TPC-H at -sf, then exit")
	flag.Parse()
	pool.DefaultWorkers = *workers
	if *plan {
		planDemo(*sf)
		return
	}

	run := func(name string, f func()) {
		if *exp == "all" || *exp == name {
			fmt.Printf("==================== %s ====================\n", name)
			f()
			fmt.Println()
		}
	}
	run("table1", table1)
	run("table3", func() { table3(courseSizes(*maxSize), *perQuestion) })
	run("table4", func() { table4(*maxSize, *perQuestion, *sample) })
	run("fig3", func() { fig3(*maxSize, *perQuestion) })
	run("fig4", func() { fig4(courseSizes(*maxSize), *perQuestion, *sample) })
	run("fig5", func() { fig5(*maxSize, *perQuestion, *sample) })
	run("fig6", func() { fig6(*sf) })
	run("fig7", func() { fig7(*sf) })
	run("study", studyExp)
}

func courseSizes(max int) []int {
	all := []int{1000, 4000, 10000, 40000, 100000}
	var out []int
	for _, s := range all {
		if s <= max {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

// workload pairs a wrong query with its question's correct query.
type workload struct {
	question string
	desc     string
	q1, q2   ra.Node
}

func buildWorkload(db *relation.Database, perQuestion int) []workload {
	bank := course.WrongQueryBank(db, perQuestion)
	discovered, err := course.DiscoveredWrong(db, bank)
	check(err)
	correct := map[string]ra.Node{}
	for _, q := range course.Questions() {
		correct[q.ID] = q.Correct
	}
	var out []workload
	for _, w := range discovered {
		out = append(out, workload{question: w.Question, desc: w.Desc, q1: correct[w.Question], q2: w.Query})
	}
	return out
}

// ---------------------------------------------------------------- table 1

func table1() {
	fmt.Println("Empirical check of the Table 1 tractable classes: the dedicated")
	fmt.Println("poly-time algorithms agree with the solver-based optimum.")
	db := course.GenerateDB(2000, 1)
	cases := []struct {
		class  string
		q1, q2 string
	}{
		{"SJ", "select[dept = 'CS'](Student join Registration)",
			"select[dept = 'PHYS'](Student join Registration)"},
		{"SPU", "project[name](select[dept = 'CS'](Registration)) union project[name](select[dept = 'ECON'](Registration))",
			"project[name](select[dept = 'PHYS'](Registration))"},
		{"JU*", "project[name](select[dept = 'CS'](Registration)) union project[name](Student)",
			"project[name](select[dept = 'PHYS'](Registration))"},
		{"SPJU", "project[name](select[dept = 'CS'](Student join Registration))",
			"project[name](select[dept = 'PHYS'](Student join Registration))"},
	}
	fmt.Printf("%-6s %-14s %-10s %-14s %-10s %s\n", "class", "poly-time alg", "size", "solver (Optσ)", "size", "agree")
	for _, c := range cases {
		p := core.Problem{Q1: mustParse(c.q1), Q2: mustParse(c.q2), DB: db}
		ce1, s1, err := core.MonotoneSWP(p, 0)
		check(err)
		ce2, s2, err := core.OptSigma(p)
		check(err)
		fmt.Printf("%-6s %-14v %-10d %-14v %-10d %v\n",
			c.class, s1.TotalTime.Round(time.Microsecond), ce1.Size(),
			s2.TotalTime.Round(time.Microsecond), ce2.Size(), ce1.Size() == ce2.Size())
	}
	// SPJUD*: the Example 1 pair.
	p := core.Problem{Q1: course.Questions()[4].Correct, Q2: mustParse(
		"project[name, major](select[dept = 'CS'](Student join Registration))"), DB: db}
	ce1, s1, err := core.SPJUDStarSWP(p, 1<<16)
	check(err)
	ce2, s2, err := core.OptSigma(p)
	check(err)
	fmt.Printf("%-6s %-14v %-10d %-14v %-10d %v\n", "SPJUD*",
		s1.TotalTime.Round(time.Microsecond), ce1.Size(),
		s2.TotalTime.Round(time.Microsecond), ce2.Size(), ce1.Size() == ce2.Size())
}

// ---------------------------------------------------------------- table 3

func table3(sizes []int, perQuestion int) {
	fmt.Println("Table 3: |D| vs number of wrong queries discovered")
	ref := course.GenerateDB(sizes[len(sizes)-1], 1)
	bank := course.WrongQueryBank(ref, perQuestion)
	fmt.Printf("%-12s %-22s %s\n", "# tuples", "# incorrect discovered", "bank size")
	for _, size := range sizes {
		db := course.GenerateDB(size, 1)
		found, err := course.DiscoveredWrong(db, bank)
		check(err)
		fmt.Printf("%-12d %-22d %d\n", size, len(found), len(bank))
	}
}

// ---------------------------------------------------------------- table 4

func table4(size, perQuestion, sample int) {
	fmt.Println("Table 4: SCP (Basic) vs SWP (Optσ)")
	db := course.GenerateDB(size, 1)
	wl := buildWorkload(db, perQuestion)
	if len(wl) > sample {
		wl = wl[:sample]
	}
	// Each wrong query is explained independently; fan the per-question
	// loop out over the worker pool and reduce per-index results in order
	// (so the printed aggregates are deterministic).
	type t4row struct {
		ok                 bool
		basicTime, optTime time.Duration
		basicSize, optSize int
	}
	rows := make([]t4row, len(wl))
	check(pool.ForEach(pool.DefaultWorkers, len(wl), func(i int) error {
		w := wl[i]
		p := core.Problem{Q1: w.q1, Q2: w.q2, DB: db, Constraints: course.Constraints()}
		ceB, sB, err := core.Basic(p, 128)
		if err != nil {
			return nil
		}
		ceO, sO, err := core.OptSigma(p)
		if err != nil {
			return nil
		}
		rows[i] = t4row{ok: true, basicTime: sB.TotalTime, optTime: sO.TotalTime,
			basicSize: ceB.Size(), optSize: ceO.Size()}
		return nil
	}))
	var basicTime, optTime time.Duration
	var basicSize, optSize, n int
	for _, r := range rows {
		if !r.ok {
			continue
		}
		basicTime += r.basicTime
		optTime += r.optTime
		basicSize += r.basicSize
		optSize += r.optSize
		n++
	}
	if n == 0 {
		fmt.Println("no workload")
		return
	}
	fmt.Printf("%-14s %-18s %s\n", "", "mean runtime", "mean counterexample size")
	fmt.Printf("%-14s %-18v %.2f\n", "SCP — Basic", (basicTime / time.Duration(n)).Round(time.Microsecond), float64(basicSize)/float64(n))
	fmt.Printf("%-14s %-18v %.2f\n", "SWP — Optσ", (optTime / time.Duration(n)).Round(time.Microsecond), float64(optSize)/float64(n))
	fmt.Printf("speedup: %.1fx\n", float64(basicTime)/float64(optTime))
}

// ------------------------------------------------------------------ fig 3

func fig3(size, perQuestion int) {
	fmt.Println("Figure 3: query complexity vs per-component time (Optσ)")
	db := course.GenerateDB(size, 1)
	wl := buildWorkload(db, perQuestion)
	type row struct {
		ok                 bool
		ops, diffs, height int
		raw, prov, solver  time.Duration
	}
	slots := make([]row, len(wl))
	check(pool.ForEach(pool.DefaultWorkers, len(wl), func(i int) error {
		w := wl[i]
		p := core.Problem{Q1: w.q1, Q2: w.q2, DB: db}
		_, s, err := core.OptSigma(p)
		if err != nil {
			return nil
		}
		m := ra.ComputeMetrics(&ra.Diff{L: w.q1, R: w.q2})
		slots[i] = row{true, m.Operators, m.Diffs, m.Height, s.RawEvalTime, s.ProvEvalTime, s.SolverTime}
		return nil
	}))
	var rows []row
	for _, r := range slots {
		if r.ok {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ops < rows[j].ops })
	fmt.Printf("%-6s %-6s %-7s %-12s %-12s %-12s\n", "#ops", "#diff", "height", "raw", "prov-sp", "solver")
	for _, r := range rows {
		fmt.Printf("%-6d %-6d %-7d %-12v %-12v %-12v\n", r.ops, r.diffs, r.height,
			r.raw.Round(time.Microsecond), r.prov.Round(time.Microsecond), r.solver.Round(time.Microsecond))
	}
}

// ------------------------------------------------------------------ fig 4

func fig4(sizes []int, perQuestion, sample int) {
	fmt.Println("Figure 4: data size vs mean per-component running time")
	ref := course.GenerateDB(sizes[len(sizes)-1], 1)
	wl := buildWorkload(ref, perQuestion)
	if len(wl) > sample {
		wl = wl[:sample]
	}
	fmt.Printf("%-9s %-11s %-11s %-11s %-16s %-12s %-12s\n",
		"|D|", "raw", "prov-all", "prov-sp", "solver-naive128", "solver-opt", "opt-all")
	for _, size := range sizes {
		db := course.GenerateDB(size, 1)
		var raw, provAll, provSP, naive, opt, optAll time.Duration
		n := 0
		for _, w := range wl {
			p := core.Problem{Q1: w.q1, Q2: w.q2, DB: db}
			differs, _, _, err := core.Disagrees(w.q1, w.q2, db, nil)
			if err != nil || !differs {
				continue
			}
			n++
			// raw: evaluate Q1 − Q2 plainly.
			t0 := time.Now()
			_, _, _, err = core.Disagrees(w.q1, w.q2, db, nil)
			check(err)
			raw += time.Since(t0)
			// prov-all: provenance of the full difference, both directions.
			t0 = time.Now()
			_, _ = engine.EvalProv(&ra.Diff{L: w.q1, R: w.q2}, db, nil)
			_, _ = engine.EvalProv(&ra.Diff{L: w.q2, R: w.q1}, db, nil)
			provAll += time.Since(t0)
			// The remaining components come out of instrumented runs.
			_, sB, err := core.Basic(p, 128)
			if err == nil {
				naive += sB.SolverTime
			}
			if _, sA, err := core.OptSigmaAll(p); err == nil {
				optAll += sA.SolverTime
			}
			_, sO, err := core.OptSigma(p)
			if err == nil {
				provSP += sO.ProvEvalTime
				opt += sO.SolverTime
			}
		}
		if n == 0 {
			continue
		}
		d := time.Duration(n)
		fmt.Printf("%-9d %-11v %-11v %-11v %-16v %-12v %-12v\n", size,
			(raw / d).Round(time.Microsecond), (provAll / d).Round(time.Microsecond),
			(provSP / d).Round(time.Microsecond), (naive / d).Round(time.Microsecond),
			(opt / d).Round(time.Microsecond), (optAll / d).Round(time.Microsecond))
	}
}

// ------------------------------------------------------------------ fig 5

func fig5(size, perQuestion, sample int) {
	fmt.Println("Figure 5: witness size vs solver strategy")
	db := course.GenerateDB(size, 1)
	wl := buildWorkload(db, perQuestion)
	if len(wl) > sample {
		wl = wl[:sample]
	}
	strategies := []struct {
		name string
		m    int
	}{{"naive-1", 1}, {"naive-16", 16}, {"naive-128", 128}, {"opt", 0}}
	fmt.Printf("%-11s %-14s %s\n", "strategy", "mean size", "mean models tried")
	for _, s := range strategies {
		totalSize, totalTried, n := 0, 0, 0
		for _, w := range wl {
			p := core.Problem{Q1: w.q1, Q2: w.q2, DB: db}
			kind := "naive"
			if s.name == "opt" {
				kind = "opt"
			}
			sz, tried, err := core.SolveWitnessStrategy(p, kind, s.m)
			if err != nil {
				continue
			}
			totalSize += sz
			totalTried += tried
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%-11s %-14.2f %.1f\n", s.name, float64(totalSize)/float64(n), float64(totalTried)/float64(n))
	}
}

// ------------------------------------------------------------------ fig 6

func fig6(sf float64) {
	fmt.Println("Figure 6: TPC-H aggregate queries — Agg-Basic vs Agg-Opt (seconds)")
	db := tpch.Generate(sf, 1)
	fmt.Printf("generated %d tuples at sf=%v\n", db.Size(), sf)
	fmt.Printf("%-8s | %-10s %-10s %-10s %-6s | %-10s %-10s %-10s %-6s\n",
		"query", "b-raw", "b-prov", "b-solver", "b-size", "o-raw", "o-prov", "o-solver", "o-size")
	for _, qs := range tpch.All() {
		for wi, w := range qs.Wrong {
			p := core.Problem{Q1: qs.Correct, Q2: w, DB: db}
			differs, _, _, err := core.Disagrees(qs.Correct, w, db, nil)
			if err != nil || !differs {
				continue
			}
			name := fmt.Sprintf("%s/w%d", qs.Name, wi+1)
			bRaw, bProv, bSol, bSize := "-", "-", "-", "-"
			ceB, sB, err := core.AggBasic(p, core.AggOptions{MaxNodes: 10_000, MaxGroups: 1})
			if err == nil {
				bRaw, bProv, bSol = secs(sB.RawEvalTime), secs(sB.ProvEvalTime), secs(sB.SolverTime)
				bSize = fmt.Sprint(ceB.Size())
				if sB.TimedOut {
					bSol += "*"
				}
			} else if strings.Contains(err.Error(), "no verifying") {
				bSol = "timeout"
			}
			oRaw, oProv, oSol, oSize := "-", "-", "-", "-"
			ceO, sO, err := core.AggOpt(p, core.AggOptions{})
			if err == nil {
				oRaw, oProv, oSol = secs(sO.RawEvalTime), secs(sO.ProvEvalTime), secs(sO.SolverTime)
				oSize = fmt.Sprint(ceO.Size())
			}
			fmt.Printf("%-8s | %-10s %-10s %-10s %-6s | %-10s %-10s %-10s %-6s\n",
				name, bRaw, bProv, bSol, bSize, oRaw, oProv, oSol, oSize)
		}
	}
}

// ------------------------------------------------------------------ fig 7

func fig7(sf float64) {
	fmt.Println("Figure 7: parameterization on TPC-H Q18")
	db := tpch.Generate(sf, 1)
	q18 := tpch.Q18()
	fmt.Printf("%-12s %-16s %s\n", "", "solver runtime", "counterexample size")
	for wi, w := range q18.Wrong {
		p := core.Problem{Q1: q18.Correct, Q2: w, DB: db}
		differs, _, _, err := core.Disagrees(p.Q1, p.Q2, db, nil)
		if err != nil || !differs {
			continue
		}
		ceB, sB, errB := core.AggBasic(p, core.AggOptions{MaxNodes: 50_000})
		ceP, sP, errP := core.AggBasic(p, core.AggOptions{Parameterize: true, MaxNodes: 50_000})
		if errB == nil {
			fmt.Printf("w%d Agg-Basic %-16v %d\n", wi+1, sB.SolverTime.Round(time.Microsecond), ceB.Size())
		}
		if errP == nil {
			fmt.Printf("w%d Agg-Param %-16v %d  (params: %v)\n", wi+1, sP.SolverTime.Round(time.Microsecond), ceP.Size(), ceP.Params)
		}
	}
}

// ------------------------------------------------------------------- plan

// planDemo prints the cost-based join planner's decisions for a few
// multi-way TPC-H joins: the chosen join order, the estimated vs actual
// cardinality of every join (the planned tree is executed once with the
// report attached as observer), and whether the acyclic Yannakakis
// semi-join path fired.
func planDemo(sf float64) {
	fmt.Println("Cost-based join planner: chosen order, estimated vs actual rows")
	db := tpch.Generate(sf, 1)
	fmt.Printf("TPC-H instance: %d tuples at sf=%v\n\n", db.Size(), sf)
	queries := []struct{ name, src string }{
		{"3-way, selective filter last in source order",
			`(orders join[o_orderkey = l_orderkey] lineitem)
			 join[o_custkey = c_custkey] select[c_custkey < 20](customer)`},
		{"4-way chain",
			`((select[c_custkey < 50](customer) join[c_custkey = o_custkey] orders)
			 join[o_orderkey = l_orderkey] lineitem)
			 join[l_suppkey = s_suppkey] supplier`},
	}
	for _, q := range queries {
		printPlan(q.name, mustParse(q.src), db)
	}
}

func printPlan(name string, q ra.Node, db *relation.Database) {
	planned, report, err := engine.ExplainPlan(q, db, engine.Options{})
	if err != nil {
		fmt.Printf("%s: %v\n\n", name, err)
		return
	}
	// Execute the planned tree once with the report attached, so every join
	// records its actual output cardinality.
	if _, err := engine.RunOpts(engine.Set, planned, db, nil, engine.Options{
		NoOptimize: true, NoPlan: true, Observer: report,
	}); err != nil {
		fmt.Printf("%s: %v\n\n", name, err)
		return
	}
	fmt.Println(name)
	for _, reg := range report.Regions {
		if !reg.Planned {
			fmt.Printf("  region kept as written: %s (%s)\n", reg.Order, reg.Reason)
			continue
		}
		fmt.Printf("  order:   %s\n", reg.Order)
		fmt.Printf("  acyclic: %v (%d semi-joins), estimated peak %.4g rows\n", reg.Acyclic, reg.SemiJoins, reg.EstPeakRows)
		fmt.Printf("  %-58s %-12s %s\n", "join", "est rows", "actual rows")
		for _, j := range reg.Joins {
			fmt.Printf("  %-58s %-12.5g %d\n", j.Expr, j.EstRows, j.ActualRows)
		}
	}
	fmt.Println()
}

// ------------------------------------------------------------------ study

func studyExp() {
	fmt.Println("User-study simulation (Section 8) — 170 simulated students")
	c := study.Simulate(170, 2018)
	fmt.Print(c.FormatReport(2018))

	// And the tool actually works on the study problems: demo on (e).
	db := study.DB(25, 3)
	for _, prob := range study.Problems() {
		if prob.ID != "e" {
			continue
		}
		for _, m := range mutation.Mutants(prob.Correct) {
			differs, _, _, err := core.Disagrees(prob.Correct, m.Query, db, nil)
			if err != nil || !differs {
				continue
			}
			p := core.Problem{Q1: prob.Correct, Q2: m.Query, DB: db}
			ce, _, err := core.OptSigma(p)
			if err != nil {
				continue
			}
			fmt.Printf("\ndemo: problem (e), injected error %q → counterexample of %d tuples\n",
				m.Desc, ce.Size())
			break
		}
		break
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func mustParse(src string) ra.Node {
	return raparser.MustParse(src)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
