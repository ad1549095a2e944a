package course

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pool"
	"repro/internal/relation"
)

func TestGenerateDBSizes(t *testing.T) {
	for _, n := range []int{100, 1000, 4000} {
		db := GenerateDB(n, 1)
		if db.Size() < n || db.Size() > n+1 {
			t.Errorf("GenerateDB(%d) size = %d", n, db.Size())
		}
	}
}

func TestGenerateDBDeterministic(t *testing.T) {
	a := GenerateDB(500, 3)
	b := GenerateDB(500, 3)
	if a.Size() != b.Size() {
		t.Fatal("nondeterministic size")
	}
	for i, tup := range a.Relation("Registration").Tuples {
		if !tup.Identical(b.Relation("Registration").Tuples[i]) {
			t.Fatal("nondeterministic tuples")
		}
	}
}

func TestGeneratedConstraintsHold(t *testing.T) {
	db := GenerateDB(2000, 11)
	if err := relation.ValidateAll(db, Constraints()); err != nil {
		t.Fatalf("constraints violated: %v", err)
	}
}

func TestQuestionsEvaluate(t *testing.T) {
	db := GenerateDB(1000, 1)
	for _, q := range Questions() {
		r, err := engine.Eval(q.Correct, db, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if r.Len() == 0 {
			t.Errorf("%s returned no rows on 1k instance", q.ID)
		}
	}
}

func TestWrongQueryBank(t *testing.T) {
	db := GenerateDB(1000, 1)
	bank := WrongQueryBank(db, 25)
	if len(bank) < 8*5 {
		t.Fatalf("bank too small: %d", len(bank))
	}
	perQ := map[string]int{}
	for _, w := range bank {
		perQ[w.Question]++
		if w.Query == nil || w.Desc == "" {
			t.Error("incomplete bank entry")
		}
	}
	for _, q := range Questions() {
		if perQ[q.ID] == 0 {
			t.Errorf("no mutants for %s", q.ID)
		}
	}
}

func TestDiscoveredWrongGrowsWithSize(t *testing.T) {
	// The Table 3 effect: larger instances discover at least as many wrong
	// queries.
	ref := GenerateDB(4000, 1)
	bank := WrongQueryBank(ref, 25)
	small := GenerateDB(200, 1)
	big := GenerateDB(4000, 1)
	dSmall, err := DiscoveredWrong(small, bank)
	if err != nil {
		t.Fatal(err)
	}
	dBig, err := DiscoveredWrong(big, bank)
	if err != nil {
		t.Fatal(err)
	}
	// Discovery is statistically (not strictly) monotone in |D| — the
	// instances are independently generated, not nested. Allow slack.
	if len(dBig) < len(dSmall)-3 {
		t.Errorf("big instance discovered notably fewer: %d < %d", len(dBig), len(dSmall))
	}
	if len(dBig) == 0 {
		t.Fatal("no wrong queries discovered at 4k")
	}
}

func TestExplainWorksOnBankSamples(t *testing.T) {
	db := GenerateDB(800, 2)
	bank := WrongQueryBank(db, 4)
	discovered, err := DiscoveredWrong(db, bank)
	if err != nil {
		t.Fatal(err)
	}
	if len(discovered) == 0 {
		t.Fatal("nothing discovered")
	}
	questions := map[string]Question{}
	for _, q := range Questions() {
		questions[q.ID] = q
	}
	checked := 0
	for _, w := range discovered {
		if checked >= 6 {
			break
		}
		p := core.Problem{Q1: questions[w.Question].Correct, Q2: w.Query, DB: db,
			Constraints: Constraints()}
		ce, _, err := core.OptSigma(p)
		if err != nil {
			t.Errorf("%s (%s): %v", w.Question, w.Desc, err)
			continue
		}
		if err := core.Verify(p, ce); err != nil {
			t.Errorf("%s (%s): invalid counterexample: %v", w.Question, w.Desc, err)
		}
		if ce.Size() > 10 {
			t.Errorf("%s (%s): counterexample has %d tuples", w.Question, w.Desc, ce.Size())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no counterexamples checked")
	}
}

func TestExplainDiscoveredSweep(t *testing.T) {
	db := GenerateDB(400, 2)
	bank := WrongQueryBank(db, 2)
	explained, err := ExplainDiscovered(db, bank, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(explained) == 0 {
		t.Fatal("nothing discovered")
	}
	questions := map[string]Question{}
	for _, q := range Questions() {
		questions[q.ID] = q
	}
	withCE := 0
	for _, e := range explained {
		p := core.Problem{Q1: questions[e.Wrong.Question].Correct, Q2: e.Wrong.Query,
			DB: db, Constraints: Constraints()}
		for _, ce := range e.CEs {
			if err := core.Verify(p, ce); err != nil {
				t.Errorf("%s (%s): invalid counterexample: %v", e.Wrong.Question, e.Wrong.Desc, err)
			}
		}
		if len(e.CEs) > 4 {
			t.Errorf("%s: %d counterexamples, want <= 4", e.Wrong.Question, len(e.CEs))
		}
		if len(e.CEs) > 0 {
			withCE++
		}
	}
	if withCE == 0 {
		t.Fatal("no discovered query got a counterexample")
	}
}

func TestDiscoveredWrongParallelDeterministic(t *testing.T) {
	saved := pool.DefaultWorkers
	t.Cleanup(func() { pool.DefaultWorkers = saved })

	db := GenerateDB(1500, 1)
	bank := WrongQueryBank(db, 4)
	if len(bank) == 0 {
		t.Fatal("empty bank")
	}
	pool.DefaultWorkers = 1
	serial, err := DiscoveredWrong(db, bank)
	if err != nil {
		t.Fatal(err)
	}
	pool.DefaultWorkers = 8
	for run := 0; run < 3; run++ {
		par, err := DiscoveredWrong(db, bank)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("run %d: parallel found %d, serial %d", run, len(par), len(serial))
		}
		for i := range par {
			if par[i].Question != serial[i].Question || par[i].Desc != serial[i].Desc ||
				par[i].Query.String() != serial[i].Query.String() {
				t.Fatalf("run %d: output order diverged at %d: %s/%s vs %s/%s",
					run, i, par[i].Question, par[i].Desc, serial[i].Question, serial[i].Desc)
			}
		}
	}
}
