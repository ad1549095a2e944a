package raparser_test

import (
	"reflect"
	"testing"

	"repro/internal/course"
	"repro/internal/mutation"
	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/tpch"
)

// corpusQueries are the queries the repository ships: the course questions,
// the TPC-H queries with their hand-written wrong variants, and every
// internal/mutation mutant of each reference query.
func corpusQueries() []ra.Node {
	var refs, out []ra.Node
	for _, q := range course.Questions() {
		refs = append(refs, q.Correct)
	}
	for _, qs := range tpch.All() {
		refs = append(refs, qs.Correct)
		out = append(out, qs.Wrong...)
	}
	for _, q := range refs {
		out = append(out, q)
		for _, m := range mutation.Mutants(q) {
			out = append(out, m.Query)
		}
	}
	return out
}

// FuzzParsePrint: whatever the parser accepts, it accepts again as printed,
// as the same tree, and the reprint is the same text. Printing is how
// queries travel (the benchmark's pair texts, the server's plan cache
// keys), and relation.Value.Quote promises a literal the parser reads back
// as the same value.
func FuzzParsePrint(f *testing.F) {
	for _, q := range corpusQueries() {
		f.Add(q.String())
	}
	f.Add("select[a = 1 and (b = 2 and c = 3)](R)")
	f.Add("select[x > 1.0](R)")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := raparser.Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		again, err := raparser.Parse(printed)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", src, printed, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("%q printed as %q, which parses to another tree", src, printed)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("%q printed as %q, then as %q", src, printed, reprinted)
		}
	})
}
