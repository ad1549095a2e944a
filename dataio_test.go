package ratest

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
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
