// Package relation provides the data model underlying the RATest
// reproduction: typed values, schemas, tuples with stable identifiers,
// relations, database instances, and integrity constraints.
//
// The model follows Section 2 of Miao, Roy, and Yang, "Explaining Wrong
// Queries Using Small Examples" (SIGMOD 2019): database instances are sets
// of relations whose tuples carry unique identifiers (t1, t2, ...) used to
// annotate provenance, and counterexamples are subinstances selected by
// identifier.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar database value. The zero Value is NULL.
// Value is comparable and can be used as a map key.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int returns a 64-bit integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a 64-bit floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it panics if the value is not a bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// AsInt returns the integer payload; it panics if the value is not an int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the value as float64, converting integers. It panics for
// non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("relation: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload; it panics if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: AsString on %s value", v.kind))
	}
	return v.s
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Quote renders the value as a literal parseable by the RA parser, which
// reads it back as the same kind: an integral float gets a fraction ("1.0").
func (v Value) Quote() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindFloat:
		if s := v.String(); strings.Trim(s, "-0123456789") == "" {
			return s + ".0"
		}
	}
	return v.String()
}

// Equal reports SQL-style equality: NULL is not equal to anything (including
// NULL), and numeric values compare across int/float by exact value (see
// Compare), so Equal is transitive.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.IsNumeric() && o.IsNumeric() {
		switch {
		case v.kind == KindInt && o.kind == KindInt:
			return v.i == o.i
		case v.kind == KindFloat && o.kind == KindFloat:
			return v.f == o.f
		}
		c, ok := compareNumeric(v, o)
		return ok && c == 0
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	}
	return false
}

// Identical reports exact equality including NULL==NULL and kind equality.
// It is the notion of equality used for set-semantics deduplication.
func (v Value) Identical(o Value) bool { return v == o }

// Compare orders two values. It returns (cmp, true) where cmp is -1, 0 or 1,
// or (0, false) when the values are incomparable (NULLs or mixed
// non-numeric kinds). An int and a float compare by exact value, without
// rounding the int to float64, so Int(1<<53 + 1) is greater than
// Float(1<<53).
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		c, _ := compareNumeric(v, o)
		return c, true
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s), true
	case KindBool:
		switch {
		case v.i < o.i:
			return -1, true
		case v.i > o.i:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// compareNumeric orders two numeric values by exact value. ok is false when
// a NaN takes part; cmp is then 0, as Go's float comparisons leave it.
func compareNumeric(v, o Value) (cmp int, ok bool) {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return cmpOrdered(v.i, o.i), true
	case v.kind == KindFloat && o.kind == KindFloat:
		return cmpOrdered(v.f, o.f), !math.IsNaN(v.f) && !math.IsNaN(o.f)
	case v.kind == KindInt:
		c, ok := compareIntFloat(v.i, o.f)
		return c, ok
	}
	c, ok := compareIntFloat(o.i, v.f)
	return -c, ok
}

// compareIntFloat orders an int against a float exactly: the float's
// integral part is compared as an int64 where it fits, then its fraction.
func compareIntFloat(i int64, f float64) (int, bool) {
	switch {
	case math.IsNaN(f):
		return 0, false
	case f < -(1 << 63):
		return 1, true
	case f >= 1<<63:
		return -1, true
	}
	t := math.Trunc(f)
	if c := cmpOrdered(i, int64(t)); c != 0 {
		return c, true
	}
	return cmpOrdered(t, f), true
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// SortKey orders values deterministically for canonicalization: NULLs first,
// then by kind, then by payload; an int and a float compare by value first
// (as Compare does) and by kind on a tie. Unlike Compare it is a total order.
func (v Value) SortKey(o Value) int {
	if v.kind != o.kind {
		if v.IsNumeric() && o.IsNumeric() {
			if c, _ := compareNumeric(v, o); c != 0 {
				return c
			}
		}
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	if c, ok := v.Compare(o); ok {
		return c
	}
	return 0
}

// Add returns the numeric sum of two values, preserving int when both are int.
func Add(a, b Value) (Value, error) { return arith(a, b, "+") }

// Sub returns the numeric difference of two values.
func Sub(a, b Value) (Value, error) { return arith(a, b, "-") }

// Mul returns the numeric product of two values.
func Mul(a, b Value) (Value, error) { return arith(a, b, "*") }

// Div returns the numeric quotient of two values; division is always
// performed in floating point, and division by zero is an error.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("relation: cannot divide %s by %s", a.kind, b.kind)
	}
	d := b.AsFloat()
	if d == 0 {
		return Null(), fmt.Errorf("relation: division by zero")
	}
	return Float(a.AsFloat() / d), nil
}

func arith(a, b Value, op string) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("relation: cannot apply %q to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		switch op {
		case "+":
			return Int(a.i + b.i), nil
		case "-":
			return Int(a.i - b.i), nil
		case "*":
			return Int(a.i * b.i), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	}
	return Null(), fmt.Errorf("relation: unknown operator %q", op)
}

// ParseValue parses a literal: NULL, true/false, integer, float, or a
// single-quoted string. Unquoted non-numeric text is treated as a string.
func ParseValue(s string) Value {
	t := strings.TrimSpace(s)
	switch strings.ToUpper(t) {
	case "NULL", "":
		return Null()
	case "TRUE":
		return Bool(true)
	case "FALSE":
		return Bool(false)
	}
	if len(t) >= 2 && t[0] == '\'' && t[len(t)-1] == '\'' {
		return String(strings.ReplaceAll(t[1:len(t)-1], "''", "'"))
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsNaN(f) {
		return Float(f)
	}
	return String(t)
}
