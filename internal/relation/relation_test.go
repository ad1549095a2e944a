package relation

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{String("hi"), KindString, "hi"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String() = %q, want %q", c.v.String(), c.str)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL = NULL should be false (SQL semantics)")
	}
	if !Int(3).Equal(Float(3.0)) {
		t.Error("3 = 3.0 should hold across kinds")
	}
	if Int(3).Equal(String("3")) {
		t.Error("3 = '3' should not hold")
	}
	if !String("a").Equal(String("a")) {
		t.Error("'a' = 'a' should hold")
	}
}

func TestValueIdentical(t *testing.T) {
	if !Null().Identical(Null()) {
		t.Error("NULL identical NULL should hold (dedup semantics)")
	}
	if Int(3).Identical(Float(3)) {
		t.Error("int 3 and float 3 must not be identical")
	}
}

func TestValueCompare(t *testing.T) {
	if c, ok := Int(1).Compare(Int(2)); !ok || c != -1 {
		t.Errorf("1 vs 2 = (%d,%v)", c, ok)
	}
	if c, ok := Float(2.5).Compare(Int(2)); !ok || c != 1 {
		t.Errorf("2.5 vs 2 = (%d,%v)", c, ok)
	}
	if c, ok := String("abc").Compare(String("abd")); !ok || c != -1 {
		t.Errorf("abc vs abd = (%d,%v)", c, ok)
	}
	if _, ok := Null().Compare(Int(1)); ok {
		t.Error("NULL comparison should be incomparable")
	}
	if _, ok := Int(1).Compare(String("1")); ok {
		t.Error("cross-kind int/string comparison should fail")
	}
}

func TestValueArith(t *testing.T) {
	got, err := Add(Int(2), Int(3))
	if err != nil || !got.Identical(Int(5)) {
		t.Errorf("2+3 = %v, %v", got, err)
	}
	got, err = Mul(Int(2), Float(1.5))
	if err != nil || !got.Identical(Float(3)) {
		t.Errorf("2*1.5 = %v, %v", got, err)
	}
	got, err = Div(Int(7), Int(2))
	if err != nil || !got.Identical(Float(3.5)) {
		t.Errorf("7/2 = %v, %v", got, err)
	}
	if _, err = Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero should error")
	}
	got, err = Add(Null(), Int(1))
	if err != nil || !got.IsNull() {
		t.Errorf("NULL+1 = %v, %v", got, err)
	}
	if _, err = Add(String("x"), Int(1)); err == nil {
		t.Error("string+int should error")
	}
}

func TestParseValue(t *testing.T) {
	cases := map[string]Value{
		"42":      Int(42),
		"2.5":     Float(2.5),
		"'CS'":    String("CS"),
		"'it''s'": String("it's"),
		"NULL":    Null(),
		"true":    Bool(true),
		"hello":   String("hello"),
	}
	for in, want := range cases {
		if got := ParseValue(in); !got.Identical(want) {
			t.Errorf("ParseValue(%q) = %v (%v), want %v (%v)", in, got, got.Kind(), want, want.Kind())
		}
	}
}

func TestSchemaResolve(t *testing.T) {
	s := NewSchema(Attr("s.name", KindString), Attr("s.major", KindString), Attr("r.name", KindString))
	if i, err := s.Resolve("s.major"); err != nil || i != 1 {
		t.Errorf("Resolve(s.major) = %d, %v", i, err)
	}
	if i, err := s.Resolve("major"); err != nil || i != 1 {
		t.Errorf("Resolve(major) = %d, %v", i, err)
	}
	if _, err := s.Resolve("name"); err == nil {
		t.Error("Resolve(name) should be ambiguous")
	}
	if _, err := s.Resolve("nope"); err == nil {
		t.Error("Resolve(nope) should fail")
	}
}

func TestSchemaQualify(t *testing.T) {
	s := NewSchema(Attr("name", KindString), Attr("x.major", KindString))
	q := s.Qualify("r")
	if q.Attrs[0].Name != "r.name" || q.Attrs[1].Name != "r.major" {
		t.Errorf("Qualify = %v", q)
	}
	u := q.Unqualify()
	if u.Attrs[0].Name != "name" || u.Attrs[1].Name != "major" {
		t.Errorf("Unqualify = %v", u)
	}
}

func TestSchemaUnionCompatible(t *testing.T) {
	a := NewSchema(Attr("x", KindInt), Attr("y", KindString))
	b := NewSchema(Attr("p", KindFloat), Attr("q", KindString))
	c := NewSchema(Attr("p", KindString), Attr("q", KindString))
	if !a.UnionCompatible(b) {
		t.Error("int/float columns should be union-compatible")
	}
	if a.UnionCompatible(c) {
		t.Error("int/string columns should not be union-compatible")
	}
	if a.UnionCompatible(NewSchema(Attr("x", KindInt))) {
		t.Error("different arity should not be union-compatible")
	}
}

func TestTupleKeyDistinguishes(t *testing.T) {
	a := NewTuple(Int(1), String("a"))
	b := NewTuple(Int(1), String("a"))
	c := NewTuple(Int(1), String("b"))
	d := NewTuple(Float(1), String("a"))
	if a.Key() != b.Key() {
		t.Error("identical tuples must share keys")
	}
	if a.Key() == c.Key() || a.Key() == d.Key() {
		t.Error("distinct tuples must have distinct keys")
	}
}

func TestTupleKeyProperty(t *testing.T) {
	f := func(x, y int64, s1, s2 string) bool {
		a := NewTuple(Int(x), String(s1))
		b := NewTuple(Int(y), String(s2))
		return (a.Key() == b.Key()) == a.Identical(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyNoSeparatorConfusion(t *testing.T) {
	// A tuple of two strings must not collide with a different split.
	a := NewTuple(String("ab"), String("c"))
	b := NewTuple(String("a"), String("bc"))
	if a.Key() == b.Key() {
		t.Error("string boundary confusion in Key")
	}
}

func exampleDatabase() *Database {
	// The running example of the paper (Figure 1).
	db := NewDatabase()
	db.CreateRelation("Student", NewSchema(Attr("name", KindString), Attr("major", KindString)))
	db.CreateRelation("Registration", NewSchema(
		Attr("name", KindString), Attr("course", KindString), Attr("dept", KindString), Attr("grade", KindInt)))
	db.Insert("Student", NewTuple(String("Mary"), String("CS")))
	db.Insert("Student", NewTuple(String("John"), String("ECON")))
	db.Insert("Student", NewTuple(String("Jesse"), String("CS")))
	reg := [][4]string{
		{"Mary", "216", "CS", "100"},
		{"Mary", "230", "CS", "75"},
		{"Mary", "208D", "ECON", "95"},
		{"John", "316", "CS", "90"},
		{"John", "208D", "ECON", "88"},
		{"Jesse", "216", "CS", "95"},
		{"Jesse", "316", "CS", "90"},
		{"Jesse", "330", "CS", "85"},
	}
	for _, r := range reg {
		db.Insert("Registration", NewTuple(String(r[0]), String(r[1]), String(r[2]), ParseValue(r[3])))
	}
	return db
}

func TestDatabaseBasics(t *testing.T) {
	db := exampleDatabase()
	if db.Size() != 11 {
		t.Errorf("Size = %d, want 11", db.Size())
	}
	if got := db.Names(); len(got) != 2 || got[0] != "Student" {
		t.Errorf("Names = %v", got)
	}
	rel, tuple, ok := db.Lookup(1)
	if !ok || rel != "Student" || !tuple[0].Identical(String("Mary")) {
		t.Errorf("Lookup(1) = %s %v %v", rel, tuple, ok)
	}
	if _, _, ok := db.Lookup(99); ok {
		t.Error("Lookup(99) should fail")
	}
	if n := len(db.AllIDs()); n != 11 {
		t.Errorf("AllIDs = %d ids", n)
	}
}

func TestSubinstance(t *testing.T) {
	db := exampleDatabase()
	keep := map[TupleID]bool{1: true, 4: true, 5: true}
	sub := db.Subinstance(keep)
	if sub.Size() != 3 {
		t.Fatalf("subinstance size = %d, want 3", sub.Size())
	}
	if !sub.SubinstanceOf(db) {
		t.Error("Subinstance result must be a subinstance of the parent")
	}
	// Identifiers must be preserved.
	rel, tuple, ok := sub.Lookup(4)
	if !ok || rel != "Registration" || !tuple[1].Identical(String("216")) {
		t.Errorf("Lookup(4) in subinstance = %s %v %v", rel, tuple, ok)
	}
	if sub.Relation("Student").Len() != 1 || sub.Relation("Registration").Len() != 2 {
		t.Error("wrong relation sizes in subinstance")
	}
}

func TestSubinstanceProperty(t *testing.T) {
	db := exampleDatabase()
	f := func(mask uint16) bool {
		keep := map[TupleID]bool{}
		n := 0
		for i := 0; i < 11; i++ {
			if mask&(1<<i) != 0 {
				keep[TupleID(i+1)] = true
				n++
			}
		}
		sub := db.Subinstance(keep)
		return sub.Size() == n && sub.SubinstanceOf(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	db := exampleDatabase()
	cl := db.Clone()
	if cl.Size() != db.Size() {
		t.Fatal("clone size mismatch")
	}
	cl.Insert("Student", NewTuple(String("Zed"), String("MATH")))
	if db.Size() == cl.Size() {
		t.Error("insert into clone leaked into original")
	}
}

func TestRelationSetOps(t *testing.T) {
	s := NewSchema(Attr("x", KindInt))
	a := NewRelation("a", s)
	a.Append(NewTuple(Int(1)))
	a.Append(NewTuple(Int(2)))
	a.Append(NewTuple(Int(2)))
	b := NewRelation("b", s)
	b.Append(NewTuple(Int(2)))
	if d := a.Dedup(); d.Len() != 2 {
		t.Errorf("Dedup len = %d", d.Len())
	}
	diff := a.SetDiff(b)
	if diff.Len() != 1 || !diff.Tuples[0][0].Identical(Int(1)) {
		t.Errorf("SetDiff = %v", diff.Tuples)
	}
	if a.SetEqual(b) {
		t.Error("a != b expected")
	}
	c := NewRelation("c", s)
	c.Append(NewTuple(Int(2)))
	c.Append(NewTuple(Int(1)))
	if !a.SetEqual(c) {
		t.Error("a == c expected (set semantics)")
	}
	if !a.Contains(NewTuple(Int(1))) || a.Contains(NewTuple(Int(3))) {
		t.Error("Contains misbehaves")
	}
}

func TestRelationSorted(t *testing.T) {
	s := NewSchema(Attr("x", KindInt), Attr("y", KindString))
	r := NewRelation("r", s)
	r.Append(NewTuple(Int(2), String("b")))
	r.Append(NewTuple(Int(1), String("z")))
	r.Append(NewTuple(Int(1), String("a")))
	sorted := r.Sorted()
	want := []Tuple{
		NewTuple(Int(1), String("a")),
		NewTuple(Int(1), String("z")),
		NewTuple(Int(2), String("b")),
	}
	for i, w := range want {
		if !sorted.Tuples[i].Identical(w) {
			t.Errorf("Sorted[%d] = %v, want %v", i, sorted.Tuples[i], w)
		}
	}
}

func TestKeyConstraint(t *testing.T) {
	db := exampleDatabase()
	if err := (Key{Relation: "Student", Attrs: []string{"name"}}).Validate(db); err != nil {
		t.Errorf("unique key reported violation: %v", err)
	}
	if err := (Key{Relation: "Registration", Attrs: []string{"name"}}).Validate(db); err == nil {
		t.Error("non-unique key should report violation")
	}
	if err := (Key{Relation: "Registration", Attrs: []string{"name", "course"}}).Validate(db); err != nil {
		t.Errorf("composite key: %v", err)
	}
}

func TestNotNullAndFD(t *testing.T) {
	db := exampleDatabase()
	db.Insert("Student", NewTuple(Null(), String("CS")))
	if err := (NotNull{Relation: "Student", Attr: "name"}).Validate(db); err == nil {
		t.Error("not-null should catch NULL")
	}
	if err := (NotNull{Relation: "Student", Attr: "major"}).Validate(db); err != nil {
		t.Errorf("major has no NULLs: %v", err)
	}
	if err := (FD{Relation: "Registration", From: []string{"name", "course"}, To: []string{"dept"}}).Validate(db); err != nil {
		t.Errorf("valid FD reported violation: %v", err)
	}
	if err := (FD{Relation: "Registration", From: []string{"dept"}, To: []string{"grade"}}).Validate(db); err == nil {
		t.Error("invalid FD should report violation")
	}
}

func TestForeignKey(t *testing.T) {
	db := exampleDatabase()
	fk := ForeignKey{ChildRel: "Registration", ChildAttrs: []string{"name"},
		ParentRel: "Student", ParentAttrs: []string{"name"}}
	if err := fk.Validate(db); err != nil {
		t.Errorf("valid FK reported violation: %v", err)
	}
	// Drop Mary from Student: registrations now dangle.
	keep := map[TupleID]bool{}
	for _, id := range db.AllIDs() {
		keep[id] = true
	}
	keep[1] = false
	sub := db.Subinstance(keep)
	if err := fk.Validate(sub); err == nil {
		t.Error("dangling FK should report violation")
	}
	if fk.ClosedUnderSubinstance() {
		t.Error("FK must not be closed under subinstances")
	}
	if !(Key{Relation: "Student", Attrs: []string{"name"}}).ClosedUnderSubinstance() {
		t.Error("keys are closed under subinstances")
	}
}

func TestForeignKeyParentsOf(t *testing.T) {
	db := exampleDatabase()
	fk := ForeignKey{ChildRel: "Registration", ChildAttrs: []string{"name"},
		ParentRel: "Student", ParentAttrs: []string{"name"}}
	parents, err := fk.ParentsOf(db)
	if err != nil {
		t.Fatal(err)
	}
	// Registration tuple 4 (Mary 216) references Student tuple 1 (Mary).
	if ps := parents[4]; len(ps) != 1 || ps[0] != 1 {
		t.Errorf("parents of t4 = %v, want [1]", ps)
	}
	if len(parents) != 8 {
		t.Errorf("expected 8 child entries, got %d", len(parents))
	}
}

func TestValidateAll(t *testing.T) {
	db := exampleDatabase()
	cs := []Constraint{
		Key{Relation: "Student", Attrs: []string{"name"}},
		ForeignKey{ChildRel: "Registration", ChildAttrs: []string{"name"},
			ParentRel: "Student", ParentAttrs: []string{"name"}},
	}
	if err := ValidateAll(db, cs); err != nil {
		t.Errorf("valid instance failed: %v", err)
	}
}

func TestTupleIDLabel(t *testing.T) {
	if TupleID(7).Label() != "t7" {
		t.Errorf("Label = %q", TupleID(7).Label())
	}
	if InvalidTupleID.Label() != "t?" {
		t.Errorf("invalid Label = %q", InvalidTupleID.Label())
	}
}

func TestRelationString(t *testing.T) {
	db := exampleDatabase()
	s := db.Relation("Student").String()
	if !strings.Contains(s, "Mary") || !strings.Contains(s, "t1") {
		t.Errorf("String output missing content: %q", s)
	}
}

// TestIntFloatExact: an int and a float compare by exact value, not by the
// int's float64 rounding, so Equal stays transitive beyond 2^53.
func TestIntFloatExact(t *testing.T) {
	const big = 1 << 53
	cases := []struct {
		a, b Value
		cmp  int
	}{
		{Int(big), Float(big), 0},
		{Int(big + 1), Float(big), 1},
		{Float(big), Int(big + 1), -1},
		{Int(-3), Float(-2.5), -1},
		{Int(-2), Float(-2.5), 1},
		{Int(2), Float(2.5), -1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
		{Float(math.Inf(1)), Int(math.MaxInt64), 1},
	}
	for _, c := range cases {
		if got, ok := c.a.Compare(c.b); !ok || got != c.cmp {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, ok, c.cmp)
		}
		if got := c.a.Equal(c.b); got != (c.cmp == 0) {
			t.Errorf("Equal(%v, %v) = %v", c.a, c.b, got)
		}
		if got := c.a.SortKey(c.b); c.cmp != 0 && got != c.cmp {
			t.Errorf("SortKey(%v, %v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
	}
	if Int(1).Equal(Float(math.NaN())) || Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN equals something")
	}
}

// TestKeyAgreesWithIdentical: Identical tuples have identical keys, −0 and
// 0 included.
func TestKeyAgreesWithIdentical(t *testing.T) {
	a, b := NewTuple(Float(math.Copysign(0, -1))), NewTuple(Float(0))
	if !a.Identical(b) || a.Key() != b.Key() {
		t.Errorf("Identical %v, keys %q and %q", a.Identical(b), a.Key(), b.Key())
	}
}
