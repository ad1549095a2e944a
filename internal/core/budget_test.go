package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
)

// A canceled context must abort every algorithm entry point with an error
// wrapping both ErrBudget and context.Canceled — never a counterexample.
// The entry points are those the ratest algorithm names reach, each on a
// pair of its class.
func TestCanceledContextAborts(t *testing.T) {
	db := testdb.Example1DB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: db, Ctx: ctx}
	mono := p
	mono.Q1 = raparser.MustParse(`project[name, major](Student join Registration)`)
	agg := p
	agg.Q1, agg.Q2 = testdb.AggQ1(), testdb.AggQ2()
	having := p
	having.Q1, having.Q2 = testdb.HavingQ1(), testdb.HavingQ2()

	algos := map[string]func() error{
		"Explain":     func() error { _, _, err := Explain(p); return err },
		"Basic":       func() error { _, _, err := Basic(p, 0); return err },
		"OptSigma":    func() error { _, _, err := OptSigma(p); return err },
		"OptSigmaAll": func() error { _, _, err := OptSigmaAll(p); return err },
		"ShrinkGreedy": func() error {
			_, _, err := ShrinkGreedy(p)
			return err
		},
		"EnumerateSmallest": func() error { _, err := EnumerateSmallest(p, 4); return err },
		"MonotoneSWP":       func() error { _, _, err := MonotoneSWP(mono, 0); return err },
		"JUStarSWP":         func() error { _, _, err := JUStarSWP(mono); return err },
		"SPJUDStarSWP":      func() error { _, _, err := SPJUDStarSWP(p, 0); return err },
		"Agg-Basic":         func() error { _, _, err := AggBasic(agg, AggOptions{}); return err },
		"Agg-Param":         func() error { _, _, err := AggBasic(having, AggOptions{Parameterize: true}); return err },
		"Agg-Opt":           func() error { _, _, err := AggOpt(agg, AggOptions{}); return err },
	}
	for name, run := range algos {
		err := run()
		if err == nil {
			t.Fatalf("%s: expected a budget error under a canceled context", name)
		}
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s: error %v does not wrap ErrBudget", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", name, err)
		}
	}
}

// A deadline that expires mid-search must surface as a budget error, and
// the same problem without the deadline must still succeed (the plumbing
// must not leak budget state between runs).
func TestDeadlineMidSearch(t *testing.T) {
	db := testdb.Example1DB()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: db}
	if _, _, err := Explain(p); err != nil {
		t.Fatalf("unbudgeted Explain failed: %v", err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	p.Ctx = ctx
	_, _, err := Explain(p)
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected budget+deadline error, got %v", err)
	}
}

// Problem.MaxRows must tighten the engine's intermediate-row budget for the
// problem's own evaluations.
func TestMaxRowsBudget(t *testing.T) {
	db := testdb.Example1DB()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: db, MaxRows: 2}
	_, _, err := Explain(p)
	if !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("expected ErrRowBudget with MaxRows=2, got %v", err)
	}
	p.MaxRows = 0
	if _, _, err := Explain(p); err != nil {
		t.Fatalf("Explain without MaxRows failed: %v", err)
	}
}

// A Q2 whose streamed outputs all lie in Q1's result must still fail with
// ErrRowBudget once its top join has emitted the budget's worth of pairs,
// instead of streaming without bound: here Q1 = Q2 on D, and the cross
// product has 400 pairs.
func TestStreamedWitnessRowBudget(t *testing.T) {
	db := relation.NewDatabase()
	db.CreateRelation("R", relation.NewSchema(relation.Attr("x", relation.KindInt)))
	db.CreateRelation("S", relation.NewSchema(relation.Attr("y", relation.KindInt)))
	for i := 0; i < 20; i++ {
		db.Insert("R", relation.NewTuple(relation.Int(int64(i))))
		db.Insert("S", relation.NewTuple(relation.Int(int64(i))))
	}
	p := Problem{Q1: raparser.MustParse(`project[x](R)`), Q2: raparser.MustParse(`project[x](R cross S)`), DB: db, MaxRows: 100}
	if _, _, err := OptSigma(p); !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("expected ErrRowBudget with MaxRows=100, got %v", err)
	}
	p.MaxRows = 0
	if _, _, err := OptSigma(p); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("without MaxRows: got %v, want ErrQueriesAgree", err)
	}
}

// The agree outcome must be detectable with errors.Is across algorithms.
func TestErrQueriesAgreeSentinel(t *testing.T) {
	db := testdb.Example1DB()
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q1(), DB: db}
	if _, _, err := Explain(p); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("Explain on equal queries: got %v, want ErrQueriesAgree", err)
	}
	if _, err := EnumerateSmallest(p, 4); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("EnumerateSmallest on equal queries: got %v, want ErrQueriesAgree", err)
	}
	if _, _, err := ShrinkGreedy(p); !errors.Is(err, ErrQueriesAgree) {
		t.Fatalf("ShrinkGreedy on equal queries: got %v, want ErrQueriesAgree", err)
	}
}
