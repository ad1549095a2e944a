package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/course"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/ra"
	"repro/internal/tpch"
)

// checkBaseWitness fails unless baseWitness returns the oriented pair and
// tuple that baseDiff and firstWitness return, or agrees where they do. It
// reports false when baseDiff exceeds the row budget: then there is no
// answer to compare with.
func checkBaseWitness(t *testing.T, name string, p core.Problem) bool {
	t.Helper()
	wa, wb, want, werr := p.BaseDiffWitness()
	if errors.Is(werr, engine.ErrRowBudget) {
		return false
	}
	qa, qb, got, err := p.BaseWitness()
	if errors.Is(werr, core.ErrQueriesAgree) {
		if !errors.Is(err, core.ErrQueriesAgree) {
			t.Errorf("%s: the queries agree, baseWitness gave %v, %v", name, got, err)
		}
		return true
	}
	if werr != nil {
		t.Fatalf("%s: baseDiff: %v", name, werr)
	}
	if err != nil {
		t.Fatalf("%s: baseWitness: %v", name, err)
	}
	if qa != wa || qb != wb || !got.Identical(want) {
		t.Errorf("%s: baseWitness picked %v from %s, baseDiff %v from %s", name, got, side(p, qa), want, side(p, wa))
	}
	return true
}

func side(p core.Problem, q ra.Node) string {
	if q == p.Q1 {
		return "Q1 − Q2"
	}
	return "Q2 − Q1"
}

// slowInnerMutants caps the mutants checked of the queries whose inner
// queries take up to 1.5 s per evaluation at sf 0.0005; their hand-written
// wrong variants are all checked.
var slowInnerMutants = map[string]int{"Q21": 6, "Q21-S": 6}

// TestBaseWitnessMatchesBaseDiff: over the course bank and the Agg-Opt
// inner queries of every TPC-H pair, first-witness evaluation picks what
// the materialized differences give.
func TestBaseWitnessMatchesBaseDiff(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		db := course.GenerateDB(500, seed)
		correct := map[string]ra.Node{}
		for _, q := range course.Questions() {
			correct[q.ID] = q.Correct
		}
		for _, w := range course.WrongQueryBank(db, 1<<10) {
			p := core.Problem{Q1: correct[w.Question], Q2: w.Query, DB: db, Constraints: course.Constraints()}
			if !checkBaseWitness(t, fmt.Sprintf("course seed %d, %s %s", seed, w.Question, w.Desc), p) {
				t.Errorf("course seed %d, %s %s: the bank holds only pairs within the row budget", seed, w.Question, w.Desc)
			}
		}
	}

	db := tpch.Generate(0.0005, 1)
	checked, over := 0, 0
	for _, qs := range tpch.All() {
		wrong := append([]ra.Node(nil), qs.Wrong...)
		for i, m := range mutation.Mutants(qs.Correct) {
			if n, ok := slowInnerMutants[qs.Name]; ok && i == n {
				break
			}
			wrong = append(wrong, m.Query)
		}
		for i, w := range wrong {
			pp := core.Problem{Q1: qs.Correct, Q2: w, DB: db, Constraints: tpch.Constraints()}.WithHavingParams()
			spec1, ok1 := ra.MatchTopAggregate(pp.Q1)
			spec2, ok2 := ra.MatchTopAggregate(pp.Q2)
			if !ok1 || !ok2 {
				continue
			}
			pp.Q1, pp.Q2 = spec1.Inner, spec2.Inner
			if checkBaseWitness(t, fmt.Sprintf("%s pair %d: %s", qs.Name, i, w), pp) {
				checked++
			} else {
				over++
			}
		}
	}
	// A few mutants (a join key turned into <>) build a cross product past
	// the row budget, so their materialized differences do not exist.
	t.Logf("TPC-H: %d inner pairs checked, %d past the row budget", checked, over)
	if over > checked/10 {
		t.Errorf("%d of %d TPC-H inner pairs exceed the row budget", over, checked+over)
	}
}

// TestOptSigmaWitnessPastRowBudget: OptSigma explains q7's cross-product
// mutant under a row budget that Q2's result alone exceeds, because
// first-witness evaluation stops streaming Q2's top join at the witness. It
// lives here rather than in budget_test.go because course imports core.
func TestOptSigmaWitnessPastRowBudget(t *testing.T) {
	db := course.GenerateDB(2000, 1)
	var q1, q2 ra.Node
	for _, q := range course.Questions() {
		if q.ID == "q7" {
			q1 = q.Correct
		}
	}
	for _, m := range mutation.Mutants(q1) {
		if m.Desc == `dropped conjunct "a.course = b.course"` {
			q2 = m.Query
		}
	}
	if q2 == nil {
		t.Fatal("q7 has no mutant that drops a.course = b.course")
	}
	if r, err := engine.Eval(q2, db, nil); err != nil || r.Len() != 42195 {
		t.Fatalf("the mutant returns %v rows (%v), want 42,195", r.Len(), err)
	}
	p := core.Problem{Q1: q1, Q2: q2, DB: db, Constraints: course.Constraints(), MaxRows: 10_000}
	if _, _, err := engine.EvalPair(q1, q2, db, nil, engine.Options{MaxRows: p.MaxRows}); !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("materializing both queries under MaxRows %d: %v, want ErrRowBudget", p.MaxRows, err)
	}
	ce, st, err := core.OptSigma(p)
	if err != nil {
		t.Fatalf("OptSigma under MaxRows %d: %v", p.MaxRows, err)
	}
	if ce.Size() > 4 || !st.Optimal {
		t.Errorf("OptSigma returned %d tuples (optimal: %v); a pair of students needs at most 4", ce.Size(), st.Optimal)
	}
}
