package boolexpr

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// CNFBuilder accumulates clauses in the DIMACS-style convention used by the
// SAT solver: variables are positive integers, a literal is +v or -v, a
// clause is a list of literals. It maps expression variable ids to SAT
// variables and allocates fresh auxiliary (Tseitin) variables.
type CNFBuilder struct {
	NumVars int
	Clauses [][]int

	varOf  map[int]int // expression var id -> SAT var
	exprOf map[int]int // SAT var -> expression var id (base vars only)
}

// NewCNFBuilder returns an empty builder.
func NewCNFBuilder() *CNFBuilder {
	return &CNFBuilder{varOf: make(map[int]int), exprOf: make(map[int]int)}
}

// VarFor returns the SAT variable representing expression variable id,
// allocating one on first use.
func (b *CNFBuilder) VarFor(id int) int {
	if v, ok := b.varOf[id]; ok {
		return v
	}
	v := b.Fresh()
	b.varOf[id] = v
	b.exprOf[v] = id
	return v
}

// HasVar reports whether expression variable id has been allocated.
func (b *CNFBuilder) HasVar(id int) bool { _, ok := b.varOf[id]; return ok }

// ExprVar maps a SAT variable back to its expression variable id. ok is
// false for auxiliary Tseitin variables.
func (b *CNFBuilder) ExprVar(satVar int) (int, bool) {
	id, ok := b.exprOf[satVar]
	return id, ok
}

// BaseVars returns the SAT variables corresponding to expression variables
// (excluding Tseitin auxiliaries), in ascending order. The order matters:
// it fixes the clause order of downstream encodings (foreign-key
// implications, cardinality bounds), and CDCL search is sensitive to clause
// order — iterating the map directly made witness search nondeterministic
// across runs.
func (b *CNFBuilder) BaseVars() []int {
	out := make([]int, 0, len(b.varOf))
	for _, v := range b.varOf {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Fresh allocates a new SAT variable.
func (b *CNFBuilder) Fresh() int {
	b.NumVars++
	return b.NumVars
}

// AddClause appends a clause.
func (b *CNFBuilder) AddClause(lits ...int) {
	c := make([]int, len(lits))
	copy(c, lits)
	b.Clauses = append(b.Clauses, c)
}

// Assert adds clauses forcing e to be true, by the Tseitin transformation.
// The encoding is structural: a gate is keyed by its operator and its
// children's literals, so equal subformulas share one gate whether or not
// they share a pointer, and a formula encodes to the same NumVars and
// Clauses as any copy of it that shares more or fewer subexpressions. A
// subexpression met again by pointer is not walked again.
func (b *CNFBuilder) Assert(e *Expr) {
	b.AddClause(b.tseitin(e, make(map[*Expr]int), make(map[string]int)))
}

// AssertImplies adds clauses for (a -> b) where a and b are expression
// variable ids; used for foreign-key constraints (Section 4.3).
func (b *CNFBuilder) AssertImplies(a int, bs []int) {
	clause := make([]int, 0, len(bs)+1)
	clause = append(clause, -b.VarFor(a))
	for _, p := range bs {
		clause = append(clause, b.VarFor(p))
	}
	b.AddClause(clause...)
}

// tseitin returns a literal equivalent to e, adding defining clauses. memo
// holds the literals of the expressions walked, and gates the literal of
// each gate by its operator and its children's literals.
func (b *CNFBuilder) tseitin(e *Expr, memo map[*Expr]int, gates map[string]int) int {
	if lit, ok := memo[e]; ok {
		return lit
	}
	var lit int
	switch e.Op {
	case OpVar:
		lit = b.VarFor(e.X)
	case OpNot:
		lit = -b.tseitin(e.Kids[0], memo, gates)
	case OpTrue, OpFalse, OpAnd, OpOr:
		key := []byte{byte(e.Op)}
		kids := make([]int, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = b.tseitin(k, memo, gates)
			key = binary.AppendVarint(key, int64(kids[i]))
		}
		var ok bool
		if lit, ok = gates[string(key)]; !ok {
			// lit ↔ ∧kids for And and True (no kids); for Or and False, s
			// negates every literal of the clauses: lit ↔ ∨kids.
			s := 1
			if e.Op == OpOr || e.Op == OpFalse {
				s = -1
			}
			lit = b.Fresh()
			long := append(make([]int, 0, len(kids)+1), s*lit)
			for _, k := range kids {
				b.AddClause(-s*lit, s*k)
				long = append(long, -s*k)
			}
			b.AddClause(long...)
			gates[string(key)] = lit
		}
	default:
		panic(fmt.Sprintf("boolexpr: unknown op %d", e.Op))
	}
	memo[e] = lit
	return lit
}
