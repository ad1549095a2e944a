package ratest

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// FuzzLoadDatabase: whatever LoadDatabase accepts, DumpDatabase writes as
// text that LoadDatabase reads back to the same relation names, schemas,
// tuple values in order and constraints. The seed corpus is under
// testdata/fuzz/FuzzLoadDatabase/.
func FuzzLoadDatabase(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		db, cons, err := LoadDatabase(strings.NewReader(src))
		if err != nil {
			return
		}
		var dump bytes.Buffer
		if err := DumpDatabase(&dump, db, cons); err != nil {
			t.Fatal(err)
		}
		again, againCons, err := LoadDatabase(bytes.NewReader(dump.Bytes()))
		if err != nil {
			t.Fatalf("the dump does not load: %v\ndump:\n%s", err, dump.String())
		}
		if !reflect.DeepEqual(db.Names(), again.Names()) {
			t.Fatalf("relations %q reload as %q\ndump:\n%s", db.Names(), again.Names(), dump.String())
		}
		for _, name := range db.Names() {
			r, r2 := db.Relation(name), again.Relation(name)
			if !reflect.DeepEqual(r.Schema, r2.Schema) {
				t.Fatalf("relation %q: schema %v reloads as %v", name, r.Schema, r2.Schema)
			}
			if !reflect.DeepEqual(r.Tuples, r2.Tuples) {
				t.Fatalf("relation %q: tuples %v reload as %v\ndump:\n%s", name, r.Tuples, r2.Tuples, dump.String())
			}
		}
		if !reflect.DeepEqual(cons, againCons) {
			t.Fatalf("constraints %v reload as %v\ndump:\n%s", cons, againCons, dump.String())
		}
	})
}

// TestLoadDatabaseKeepsStringText: an unquoted field of a string column
// loads as the text written, not as a number or bool printed back.
func TestLoadDatabaseKeepsStringText(t *testing.T) {
	src := "relation C(code: string, n: int, x: float)\n007, 7, 7\n1.50, 1, 1.50\nTRUE, 2, 2\nnull, 3, 3\n'0.10', 4, 4\n"
	db, _, err := LoadDatabase(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []Tuple{
		{relation.String("007"), relation.Int(7), relation.Float(7)},
		{relation.String("1.50"), relation.Int(1), relation.Float(1.5)},
		{relation.String("TRUE"), relation.Int(2), relation.Float(2)},
		{relation.Null(), relation.Int(3), relation.Float(3)},
		{relation.String("0.10"), relation.Int(4), relation.Float(4)},
	}
	if got := db.Relation("C").Tuples; !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %v, want %v", got, want)
	}
}
