// Package course reproduces the workload of the paper's first experiment
// (Section 7.1): a relational algebra assignment over a university
// registration schema. It provides a deterministic data generator at the
// paper's sizes (1k–100k tuples), the 8 assignment questions as correct RA
// queries, and a bank of wrong queries produced by query mutation.
//
// The original experiment used 141 real student submissions; those are not
// available, so the bank substitutes mutation-generated queries exhibiting
// the same error classes the paper reports (different selection conditions,
// incorrect use of difference, incorrect projection placement).
package course

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/pool"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
)

var (
	majors = []string{"CS", "ECON", "MATH", "PHYS", "HIST"}
	depts  = []string{"CS", "ECON", "MATH", "PHYS", "HIST"}
)

// GenerateDB builds a Student/Registration instance with approximately
// numTuples total tuples (the |D| of Table 3), deterministically from the
// seed. Roughly 1/5 of the tuples are students; each student registers for
// 1–8 courses with CS over-represented (as in a database course's test
// instance).
func GenerateDB(numTuples int, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	db.CreateRelation("Student", relation.NewSchema(
		relation.Attr("name", relation.KindString),
		relation.Attr("major", relation.KindString)))
	db.CreateRelation("Registration", relation.NewSchema(
		relation.Attr("name", relation.KindString),
		relation.Attr("course", relation.KindString),
		relation.Attr("dept", relation.KindString),
		relation.Attr("grade", relation.KindInt)))

	nStudents := numTuples / 5
	if nStudents < 3 {
		nStudents = 3
	}
	type regKey struct{ s, c string }
	seen := map[regKey]bool{}
	total := nStudents
	for i := 0; i < nStudents; i++ {
		name := fmt.Sprintf("s%05d", i)
		db.Insert("Student", relation.NewTuple(
			relation.String(name), relation.String(majors[rng.Intn(len(majors))])))
	}
	for i := 0; total < numTuples; i = (i + 1) % nStudents {
		name := fmt.Sprintf("s%05d", i)
		dept := depts[rng.Intn(len(depts))]
		if rng.Intn(3) == 0 {
			dept = "CS" // CS courses over-represented
		}
		course := fmt.Sprintf("%s%03d", dept, 100+rng.Intn(400)*2)
		if seen[regKey{name, course}] {
			continue
		}
		seen[regKey{name, course}] = true
		// Grades cluster in 60–100; failing grades (< 60) are rare corner
		// cases that only large instances are likely to cover — this is
		// what makes more wrong queries discoverable as |D| grows
		// (Table 3).
		grade := 60 + rng.Intn(41)
		if rng.Intn(400) == 0 {
			grade = 40 + rng.Intn(20)
		}
		db.Insert("Registration", relation.NewTuple(
			relation.String(name), relation.String(course), relation.String(dept), relation.Int(int64(grade))))
		total++
	}
	return db
}

// Constraints returns the schema's integrity constraints.
func Constraints() []relation.Constraint {
	return []relation.Constraint{
		relation.Key{Relation: "Student", Attrs: []string{"name"}},
		relation.Key{Relation: "Registration", Attrs: []string{"name", "course"}},
		relation.ForeignKey{ChildRel: "Registration", ChildAttrs: []string{"name"},
			ParentRel: "Student", ParentAttrs: []string{"name"}},
	}
}

// Question is one assignment problem with its reference solution.
type Question struct {
	ID      string
	Text    string
	Correct ra.Node
}

// Questions returns the 8 assignment questions, spanning the difficulty
// range of the paper's assignment (simple SPJ through multi-difference
// universal quantification).
func Questions() []Question {
	return []Question{
		{ID: "q1", Text: "students registered for some CS course",
			Correct: raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))`)},
		{ID: "q2", Text: "students with some grade of at least 90",
			Correct: raparser.MustParse(`project[name, major](select[grade >= 90](Student join Registration))`)},
		{ID: "q3", Text: "students registered in both CS and ECON courses",
			Correct: raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))
				diff (project[name, major](select[dept = 'CS'](Student join Registration))
				      diff project[name, major](select[dept = 'ECON'](Student join Registration)))`)},
		{ID: "q4", Text: "students registered in CS but not ECON",
			Correct: raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))
				diff project[name, major](select[dept = 'ECON'](Student join Registration))`)},
		{ID: "q5", Text: "students registered for exactly one CS course",
			Correct: raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))
				diff
				project[s.name, s.major](
					select[s.name = r1.name and s.name = r2.name and r1.course <> r2.course
					       and r1.dept = 'CS' and r2.dept = 'CS']
					(rename[s](Student) cross rename[r1](Registration) cross rename[r2](Registration)))`)},
		{ID: "q6", Text: "students who registered only for CS courses (and at least one)",
			Correct: raparser.MustParse(`project[name, major](select[dept = 'CS'](Student join Registration))
				diff project[name, major](select[dept <> 'CS'](Student join Registration))`)},
		{ID: "q7", Text: "pairs of distinct students who both scored at least 90 in a shared course",
			Correct: raparser.MustParse(`project[a.name, b.name](
				select[a.course = b.course and a.name < b.name and a.grade >= 90 and b.grade >= 90]
				(rename[a](Registration) cross rename[b](Registration)))`)},
		{ID: "q8", Text: "students whose every grade is at least 60 (with some registration)",
			Correct: raparser.MustParse(`project[name, major](Student join Registration)
				diff project[name, major](select[grade < 60](Student join Registration))`)},
	}
}

// WrongQuery is one entry of the wrong-query bank.
type WrongQuery struct {
	Question string
	Desc     string
	Query    ra.Node
}

// WrongQueryBank generates mutation-based wrong queries for every question,
// keeping only mutants that (a) still type-check against the schema and (b)
// are not obviously identical to the correct query. perQuestion bounds the
// number kept per question.
func WrongQueryBank(db *relation.Database, perQuestion int) []WrongQuery {
	cat := engine.Catalog{DB: db}
	var bank []WrongQuery
	for _, q := range Questions() {
		correctSchema, err := ra.OutSchema(q.Correct, cat)
		if err != nil {
			continue
		}
		n := 0
		seen := map[string]bool{q.Correct.String(): true}
		for _, m := range mutation.Mutants(q.Correct) {
			if n >= perQuestion {
				break
			}
			key := m.Query.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			s, err := ra.OutSchema(m.Query, cat)
			if err != nil || !s.UnionCompatible(correctSchema) {
				continue
			}
			// Drop mutants that cannot be evaluated within the row budget
			// (massive cross products — the paper dropped such student
			// queries too).
			if _, err := engine.Eval(m.Query, db, nil); err != nil {
				continue
			}
			bank = append(bank, WrongQuery{Question: q.ID, Desc: m.Desc, Query: m.Query})
			n++
		}
	}
	return bank
}

// DiscoveredWrong counts how many bank queries are discovered (produce a
// different result from the correct query) on the given instance — the
// Table 3 measurement — and returns the set of discovered queries.
//
// Every per-query evaluation is independent (the engine shares no mutable
// state across evaluations and the database is read-only), so both the
// reference evaluations and the bank sweep fan out over the worker pool.
// Discovery flags land in per-index slots and the result is assembled in
// bank order, so the output order is deterministic and identical to the
// serial sweep's.
func DiscoveredWrong(db *relation.Database, bank []WrongQuery) ([]WrongQuery, error) {
	qs := Questions()
	refs := make([]*relation.Relation, len(qs))
	if err := pool.ForEach(pool.DefaultWorkers, len(qs), func(i int) error {
		r, err := engine.Eval(qs[i].Correct, db, nil)
		refs[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	results := map[string]*relation.Relation{}
	for i, q := range qs {
		results[q.ID] = refs[i]
	}
	discovered := make([]bool, len(bank))
	_ = pool.ForEach(pool.DefaultWorkers, len(bank), func(i int) error {
		r, err := engine.Eval(bank[i].Query, db, nil)
		if err != nil {
			return nil // mutant invalid on this instance: not discovered
		}
		discovered[i] = !r.SetEqual(results[bank[i].Question])
		return nil
	})
	var found []WrongQuery
	for i, w := range bank {
		if discovered[i] {
			found = append(found, w)
		}
	}
	return found, nil
}

// Explained pairs a discovered wrong query with the smallest
// counterexamples that demonstrate the mistake — the feedback a grader
// would attach to the submission.
type Explained struct {
	Wrong WrongQuery
	// CEs are up to maxEach smallest counterexamples; empty when the
	// enumeration could not produce one within its solver budget.
	CEs []*core.Counterexample
}

// ExplainDiscovered runs the grading sweep end to end: discover the bank
// queries that differ from their reference solution on db, then enumerate
// up to maxEach smallest counterexamples for each discovered query.
// Candidate verification inside the enumeration goes through the batched
// bitvector-semiring accept/reject checks (core.VerifyBatch); queries whose
// enumeration exhausts its solver budget fall back to the solver-free
// greedy shrink (core.ShrinkGreedy), so a discovered mistake still ships
// with a 1-minimal counterexample. The per-query enumerations fan out over
// the worker pool with deterministic output order.
func ExplainDiscovered(db *relation.Database, bank []WrongQuery, maxEach int) ([]Explained, error) {
	found, err := DiscoveredWrong(db, bank)
	if err != nil {
		return nil, err
	}
	correct := map[string]ra.Node{}
	for _, q := range Questions() {
		correct[q.ID] = q.Correct
	}
	out := make([]Explained, len(found))
	ferr := pool.ForEach(pool.DefaultWorkers, len(found), func(i int) error {
		w := found[i]
		out[i] = Explained{Wrong: w}
		p := core.Problem{Q1: correct[w.Question], Q2: w.Query, DB: db, Constraints: Constraints()}
		ces, err := core.EnumerateSmallest(p, maxEach)
		if err != nil {
			// No enumerable witness (solver budget exhausted, ...): fall back
			// to the greedy delta-incremental shrink, which needs no solver.
			// If even that fails, grade without a counterexample.
			if ce, _, serr := core.ShrinkGreedy(p); serr == nil {
				out[i].CEs = []*core.Counterexample{ce}
			}
			return nil
		}
		out[i].CEs = ces
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}
