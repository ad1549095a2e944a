package ratest

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/course"
	"repro/internal/mutation"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// update rewrites testdata/answers.golden from the current answers.
var update = flag.Bool("update", false, "rewrite testdata/answers.golden")

const answersGolden = "testdata/answers.golden"

// libraryPair is one (reference, wrong) query pair of a library workload,
// as RA text.
type libraryPair struct {
	group, desc string
	q1, q2      string
}

// Each TPC-H query contributes its disagreeing hand-written variants and
// this many of its first disagreeing mutants, in the mutation package's
// order.
var tpchMutantsPerQuery = map[string]int{"Q4": 8, "Q16": 8, "Q18": 4, "Q21": 2, "Q21-S": 0}

// coursePairs are the course assignment's wrong queries that disagree with
// their question's reference on a 2000-tuple instance: four bank mutants
// per question.
func coursePairs(db *relation.Database) ([]libraryPair, error) {
	found, err := course.DiscoveredWrong(db, course.WrongQueryBank(db, 4))
	if err != nil {
		return nil, err
	}
	correct := map[string]string{}
	for _, q := range course.Questions() {
		correct[q.ID] = q.Correct.String()
	}
	var pairs []libraryPair
	for _, w := range found {
		pairs = append(pairs, libraryPair{w.Question, w.Desc, correct[w.Question], w.Query.String()})
	}
	return pairs, nil
}

// tpchPairs are each TPC-H query's hand-written wrong variants and first
// mutants that disagree with it on the instance, each text once.
func tpchPairs(db *relation.Database) ([]libraryPair, error) {
	var pairs []libraryPair
	for _, qs := range tpch.All() {
		seen := map[string]bool{qs.Correct.String(): true}
		disagrees := func(q Query) bool {
			if seen[q.String()] {
				return false
			}
			seen[q.String()] = true
			eq, err := Equivalent(qs.Correct, q, db, nil)
			return err == nil && !eq
		}
		for i, w := range qs.Wrong {
			if disagrees(w) {
				pairs = append(pairs, libraryPair{qs.Name, fmt.Sprintf("W%d", i+1), qs.Correct.String(), w.String()})
			}
		}
		n := 0
		for _, m := range mutation.Mutants(qs.Correct) {
			if n == tpchMutantsPerQuery[qs.Name] {
				break
			}
			if disagrees(m.Query) {
				pairs = append(pairs, libraryPair{qs.Name, m.Desc, qs.Correct.String(), m.Query.String()})
				n++
			}
		}
	}
	return pairs, nil
}

// answerLine renders what an explanation answered: the algorithm, whether
// it claims optimality, the kept tuple ids, the explained tuple and the
// parameter setting.
func answerLine(ce *Counterexample, st *Stats) string {
	params := make([]string, 0, len(ce.Params))
	for k, v := range ce.Params {
		params = append(params, k+"="+v.String())
	}
	sort.Strings(params)
	return fmt.Sprintf("%s | optimal=%v | ids=%v | witness=%v | params=%v", st.Algorithm, st.Optimal, ce.IDs, ce.Witness, params)
}

// TestLibraryAnswers explains every pair of the course-explain and tpch-agg
// benchmark workloads at seeds 1–4, parsing each query from its printed
// text as the benchmark does, and compares each answer with
// testdata/answers.golden. A change that alters an answer on purpose
// rewrites the file with -update and lists the changed lines.
func TestLibraryAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("explains 245 pairs")
	}
	var lines []string
	for seed := int64(1); seed <= 4; seed++ {
		suites := []struct {
			name  string
			db    *relation.Database
			pairs func(*relation.Database) ([]libraryPair, error)
			cons  []Constraint
		}{
			{"course", course.GenerateDB(2000, seed), coursePairs, course.Constraints()},
			{"tpch", tpch.Generate(0.0005, seed), tpchPairs, tpch.Constraints()},
		}
		for _, s := range suites {
			pairs, err := s.pairs(s.db)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				q1, err1 := ParseQuery(p.q1)
				q2, err2 := ParseQuery(p.q2)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d %s %s %q: %v %v", seed, s.name, p.group, p.desc, err1, err2)
				}
				ce, st, err := ExplainContext(context.Background(), q1, q2, s.db, &Options{Constraints: s.cons})
				if err != nil {
					t.Fatalf("seed %d %s %s %q: %v", seed, s.name, p.group, p.desc, err)
				}
				lines = append(lines, fmt.Sprintf("seed %d %s %s %q: %s", seed, s.name, p.group, p.desc, answerLine(ce, st)))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(answersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%d answers, the golden file has %d", len(lines), len(wantLines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("answer %d changed:\n got: %s\nwant: %s", i+1, lines[i], wantLines[i])
		}
	}
}
