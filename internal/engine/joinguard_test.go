package engine_test

import (
	"testing"

	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// TestShippedJoinsHaveHashKeys walks every query the repository ships — the
// course questions, the TPC-H queries with their wrong variants, and every
// mutant of each — optimized, and optimized and planned. It fails where a
// join whose condition equates a name of its left input with a name of its
// right input would run without a hash key, as nested loops.
func TestShippedJoinsHaveHashKeys(t *testing.T) {
	courseDB := course.GenerateDB(200, 1)
	tpchDB := tpch.Generate(0.0005, 1)
	var courseQs, tpchQs []ra.Node
	for _, q := range course.Questions() {
		courseQs = append(courseQs, withMutants(q.Correct)...)
	}
	for _, qs := range tpch.All() {
		tpchQs = append(tpchQs, withMutants(qs.Correct)...)
		tpchQs = append(tpchQs, qs.Wrong...)
	}
	joins := 0
	for _, set := range []struct {
		db *relation.Database
		qs []ra.Node
	}{{courseDB, courseQs}, {tpchDB, tpchQs}} {
		cat := engine.Catalog{DB: set.db}
		for _, q := range set.qs {
			planned, _, err := engine.ExplainPlan(q, set.db, engine.Options{})
			if err != nil {
				t.Fatalf("planning %s: %v", q, err)
			}
			for _, n := range []ra.Node{engine.Optimize(q, cat), planned} {
				ra.Walk(n, func(x ra.Node) {
					switch j := x.(type) {
					case *ra.EquiJoin:
						if len(j.LKeys) == 0 {
							t.Errorf("planned join without keys in %s", n)
						}
					case *ra.Join:
						if j.Cond == nil {
							return
						}
						l, errL := ra.OutSchema(j.L, cat)
						r, errR := ra.OutSchema(j.R, cat)
						if errL != nil || errR != nil || !crossSideEquality(j.Cond, l, r) {
							return
						}
						joins++
						if lk, _, _ := engine.EquiJoinPlan(j.Cond, l, r); len(lk) == 0 {
							t.Errorf("join runs as nested loops: %s\nin %s", j.Cond, q)
						}
					}
				})
			}
		}
	}
	if joins == 0 {
		t.Fatal("no join with a cross-side equality found")
	}
}

func withMutants(q ra.Node) []ra.Node {
	out := []ra.Node{q}
	for _, m := range mutation.Mutants(q) {
		out = append(out, m.Query)
	}
	return out
}

// crossSideEquality reports whether cond has a conjunct x = y of two
// attribute names of which one names a column of l and the other a column
// of r, each by Schema.Resolve on its side alone.
func crossSideEquality(cond ra.Expr, l, r relation.Schema) bool {
	in := func(name string, s relation.Schema) bool {
		_, err := s.Resolve(name)
		return err == nil
	}
	for _, p := range ra.Conjuncts(cond) {
		c, ok := p.(*ra.Cmp)
		if !ok || c.Op != ra.EQ {
			continue
		}
		x, xok := c.L.(*ra.AttrRef)
		y, yok := c.R.(*ra.AttrRef)
		if xok && yok && (in(x.Name, l) && in(y.Name, r) || in(x.Name, r) && in(y.Name, l)) {
			return true
		}
	}
	return false
}
