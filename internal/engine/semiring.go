package engine

import (
	"fmt"
	"math"

	"repro/internal/boolexpr"
	"repro/internal/relation"
)

// Semiring is an annotation domain for query evaluation: a commutative
// semiring (⊕, ⊗, 0, 1) over T, extended with the difference rule of
// Section 6 (a "minus" combinator) and a base-tuple annotation.
//
// ⊕ (Plus) merges alternative derivations of the same tuple (union,
// duplicate elimination); ⊗ (Times) combines joint derivations (join).
type Semiring[T any] interface {
	// Zero is the ⊕-identity: the annotation of an absent tuple.
	Zero() T
	// One is the ⊗-identity: the annotation of an unconditionally present
	// tuple.
	One() T
	// Plus is ⊕.
	Plus(a, b T) T
	// Times is ⊗.
	Times(a, b T) T
	// Minus combines annotations across L − R: l is the left tuple's
	// annotation, r the matching right tuple's (Zero when absent). The set
	// semiring drops the tuple when r is nonzero; the why-provenance
	// semiring returns l ∧ ¬r (the paper's difference rule, Section 6).
	Minus(l, r T) T
	// IsZero reports whether an annotation is definitely the zero of the
	// semiring; zero-annotated tuples are pruned from operator outputs.
	// Conservatively returning false is allowed (the why-provenance
	// semiring never prunes, preserving tuples whose presence depends on
	// the chosen subinstance).
	IsZero(a T) bool
	// Leaf annotates one base tuple; id is InvalidTupleID when the tuple
	// carries no identifier (derived data). Semirings that need identities
	// (provenance) return an error in that case.
	Leaf(id relation.TupleID) (T, error)
	// Aggregates reports whether γ (GroupBy) is supported. Aggregation is
	// evaluated over the support of the input and each output row is
	// annotated One; that is only sound when annotations carry no
	// per-subinstance information (set, counting). How-provenance for
	// aggregates is core's symbolic aggregate provenance instead
	// (Section 5).
	Aggregates() bool
	// Name identifies the semiring in error messages.
	Name() string
}

// SetSemiring is plain set-semantics evaluation: the Boolean semiring
// ({⊥,⊤}, ∨, ∧). Every retained tuple is annotated ⊤.
type SetSemiring struct{}

// Zero implements Semiring.
func (SetSemiring) Zero() bool { return false }

// One implements Semiring.
func (SetSemiring) One() bool { return true }

// Plus implements Semiring.
func (SetSemiring) Plus(a, b bool) bool { return a || b }

// Times implements Semiring.
func (SetSemiring) Times(a, b bool) bool { return a && b }

// Minus implements Semiring: a tuple survives the difference iff it is
// present on the left and absent on the right.
func (SetSemiring) Minus(l, r bool) bool { return l && !r }

// IsZero implements Semiring.
func (SetSemiring) IsZero(a bool) bool { return !a }

// Leaf implements Semiring.
func (SetSemiring) Leaf(relation.TupleID) (bool, error) { return true, nil }

// Aggregates implements Semiring.
func (SetSemiring) Aggregates() bool { return true }

// Name implements Semiring.
func (SetSemiring) Name() string { return "set" }

// Count is a derivation count: the annotation domain of the counting
// semiring. It is a defined type (not a bare int64) so that raw arithmetic
// on counts is visible to review and to the saturatedarith analyzer: counts
// saturate at math.MaxInt64, so `+`/`*` on Count values belongs inside
// Counting.Plus/Times (or another guarded helper), never inline — a count
// wrapped to zero by overflow would prune a live tuple from the support.
type Count int64

// Saturated reports whether the count hit the saturation ceiling and no
// longer carries a precise value (its nonzero-ness is still exact).
func (c Count) Saturated() bool { return c == math.MaxInt64 }

// CountSemiring counts derivations: the natural-numbers semiring (ℕ, +, ×).
// The count of an output tuple is its number of derivations from base
// tuples; the support (tuples with nonzero count) equals the set-semantics
// result, which makes the counting engine a cardinality-only fast path.
//
// Counts saturate at math.MaxInt64 instead of wrapping: deep cross products
// overflow int64, and a count wrapped to zero would prune a live tuple from
// the support. Saturation keeps the support exact (a saturated count is
// still nonzero) at the cost of the count's precise value.
type CountSemiring struct{}

// Zero implements Semiring.
func (CountSemiring) Zero() Count { return 0 }

// One implements Semiring.
func (CountSemiring) One() Count { return 1 }

// Plus implements Semiring. Counts are nonnegative; the sum saturates at
// math.MaxInt64.
func (CountSemiring) Plus(a, b Count) Count {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Times implements Semiring. Counts are nonnegative; the product saturates
// at math.MaxInt64.
func (CountSemiring) Times(a, b Count) Count {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Minus implements Semiring: presence on the right annihilates the tuple
// (set-semantics difference on the support).
func (CountSemiring) Minus(l, r Count) Count {
	if r != 0 {
		return 0
	}
	return l
}

// IsZero implements Semiring.
func (CountSemiring) IsZero(a Count) bool { return a == 0 }

// Leaf implements Semiring.
func (CountSemiring) Leaf(relation.TupleID) (Count, error) { return 1, nil }

// Aggregates implements Semiring.
func (CountSemiring) Aggregates() bool { return true }

// Name implements Semiring.
func (CountSemiring) Name() string { return "count" }

// WhySemiring is Boolean how-provenance (Section 2.3): each tuple is
// annotated with a Boolean expression over base tuple identifiers that
// holds exactly on the subinstances producing the tuple.
type WhySemiring struct{}

// Zero implements Semiring.
func (WhySemiring) Zero() *boolexpr.Expr { return boolexpr.False() }

// One implements Semiring.
func (WhySemiring) One() *boolexpr.Expr { return boolexpr.True() }

// Plus implements Semiring.
func (WhySemiring) Plus(a, b *boolexpr.Expr) *boolexpr.Expr { return boolexpr.Or(a, b) }

// Times implements Semiring.
func (WhySemiring) Times(a, b *boolexpr.Expr) *boolexpr.Expr { return boolexpr.And(a, b) }

// Minus implements Semiring: the Section 6 difference rule
// Prv(t) = PrvL(t) ∧ ¬PrvR(t); with r = ⊥ (absent) this simplifies to
// PrvL(t).
func (WhySemiring) Minus(l, r *boolexpr.Expr) *boolexpr.Expr {
	return boolexpr.And(l, boolexpr.Not(r))
}

// IsZero implements Semiring. It always reports false: a tuple whose
// annotation mentions variables may be present on some subinstance, and even
// constant-⊥ tuples are kept so results stay positionally faithful to the
// legacy provenance evaluator.
func (WhySemiring) IsZero(*boolexpr.Expr) bool { return false }

// Leaf implements Semiring.
func (WhySemiring) Leaf(id relation.TupleID) (*boolexpr.Expr, error) {
	if id == relation.InvalidTupleID {
		return nil, fmt.Errorf("engine: provenance evaluation requires base tuple identifiers")
	}
	return boolexpr.Var(int(id)), nil
}

// Aggregates implements Semiring.
func (WhySemiring) Aggregates() bool { return false }

// Name implements Semiring.
func (WhySemiring) Name() string { return "why" }

// The canonical semiring instances.
var (
	Set      SetSemiring
	Counting CountSemiring
	Why      WhySemiring
)
