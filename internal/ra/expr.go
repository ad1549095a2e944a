package ra

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Expr is a scalar expression over a tuple: attribute references, constants,
// parameters (the @p symbols of Section 5.3.1), comparisons, Boolean
// connectives, and arithmetic.
type Expr interface {
	fmt.Stringer
}

// AttrRef references an attribute by (possibly qualified) name.
type AttrRef struct{ Name string }

func (a *AttrRef) String() string { return a.Name }

// Const is a literal value.
type Const struct{ Val relation.Value }

func (c *Const) String() string { return c.Val.Quote() }

// Param is a named query parameter (e.g. @numCS).
type Param struct{ Name string }

func (p *Param) String() string { return "@" + p.Name }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the operator's surface syntax.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Negate returns the complement operator.
func (o CmpOp) Negate() CmpOp {
	switch o {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return o
}

// Cmp is a comparison L op R.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is a conjunction of predicates.
type And struct{ Kids []Expr }

// String puts a conjunct that is itself a conjunction in parentheses, so
// that the printed predicate parses back to the same tree.
func (a *And) String() string {
	parts := make([]string, len(a.Kids))
	for i, k := range a.Kids {
		parts[i] = k.String()
		if _, nested := k.(*And); nested {
			parts[i] = "(" + parts[i] + ")"
		}
	}
	return strings.Join(parts, " and ")
}

// Or is a disjunction of predicates.
type Or struct{ Kids []Expr }

func (o *Or) String() string { return "(" + joinExprs(o.Kids, " or ") + ")" }

// Not is a negated predicate.
type Not struct{ Kid Expr }

func (n *Not) String() string { return fmt.Sprintf("not (%s)", n.Kid) }

// Arith is an arithmetic expression L op R with op one of + - * /.
type Arith struct {
	Op   byte
	L, R Expr
}

func (a *Arith) String() string { return fmt.Sprintf("(%s %c %s)", a.L, a.Op, a.R) }

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}

// Eq builds the common equality comparison between two attributes.
func Eq(l, r string) Expr { return &Cmp{Op: EQ, L: &AttrRef{Name: l}, R: &AttrRef{Name: r}} }

// EqConst builds attr = value.
func EqConst(attr string, v relation.Value) Expr {
	return &Cmp{Op: EQ, L: &AttrRef{Name: attr}, R: &Const{Val: v}}
}

// CompiledExpr evaluates a bound expression against a tuple.
type CompiledExpr func(t relation.Tuple) (relation.Value, error)

// CompileExpr binds attribute references to positions in schema and
// substitutes parameters, returning an evaluator. Unbound parameters are an
// error.
func CompileExpr(e Expr, schema relation.Schema, params map[string]relation.Value) (CompiledExpr, error) {
	switch x := e.(type) {
	case *AttrRef:
		i, err := schema.Resolve(x.Name)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) (relation.Value, error) { return t[i], nil }, nil
	case *Const:
		v := x.Val
		return func(relation.Tuple) (relation.Value, error) { return v, nil }, nil
	case *Param:
		v, ok := params[x.Name]
		if !ok {
			return nil, fmt.Errorf("ra: unbound parameter @%s", x.Name)
		}
		return func(relation.Tuple) (relation.Value, error) { return v, nil }, nil
	case *Cmp:
		l, err := CompileExpr(x.L, schema, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(x.R, schema, params)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(t relation.Tuple) (relation.Value, error) {
			lv, err := l(t)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := r(t)
			if err != nil {
				return relation.Null(), err
			}
			return compareValues(op, lv, rv), nil
		}, nil
	case *And:
		kids, err := compileAll(x.Kids, schema, params)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) (relation.Value, error) {
			for _, k := range kids {
				v, err := k(t)
				if err != nil {
					return relation.Null(), err
				}
				if !Truthy(v) {
					return relation.Bool(false), nil
				}
			}
			return relation.Bool(true), nil
		}, nil
	case *Or:
		kids, err := compileAll(x.Kids, schema, params)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) (relation.Value, error) {
			for _, k := range kids {
				v, err := k(t)
				if err != nil {
					return relation.Null(), err
				}
				if Truthy(v) {
					return relation.Bool(true), nil
				}
			}
			return relation.Bool(false), nil
		}, nil
	case *Not:
		k, err := CompileExpr(x.Kid, schema, params)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) (relation.Value, error) {
			v, err := k(t)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(!Truthy(v)), nil
		}, nil
	case *Arith:
		l, err := CompileExpr(x.L, schema, params)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(x.R, schema, params)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(t relation.Tuple) (relation.Value, error) {
			lv, err := l(t)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := r(t)
			if err != nil {
				return relation.Null(), err
			}
			switch op {
			case '+':
				return relation.Add(lv, rv)
			case '-':
				return relation.Sub(lv, rv)
			case '*':
				return relation.Mul(lv, rv)
			case '/':
				return relation.Div(lv, rv)
			}
			return relation.Null(), fmt.Errorf("ra: unknown arithmetic operator %c", op)
		}, nil
	}
	return nil, fmt.Errorf("ra: unknown expression type %T", e)
}

func compileAll(es []Expr, schema relation.Schema, params map[string]relation.Value) ([]CompiledExpr, error) {
	out := make([]CompiledExpr, len(es))
	for i, e := range es {
		c, err := CompileExpr(e, schema, params)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func compareValues(op CmpOp, l, r relation.Value) relation.Value {
	switch op {
	case EQ:
		return relation.Bool(l.Equal(r))
	case NE:
		if l.IsNull() || r.IsNull() {
			return relation.Bool(false)
		}
		return relation.Bool(!l.Equal(r))
	}
	c, ok := l.Compare(r)
	if !ok {
		return relation.Bool(false)
	}
	switch op {
	case LT:
		return relation.Bool(c < 0)
	case LE:
		return relation.Bool(c <= 0)
	case GT:
		return relation.Bool(c > 0)
	case GE:
		return relation.Bool(c >= 0)
	}
	return relation.Bool(false)
}

// Truthy reports whether a predicate result counts as true (SQL-style:
// NULL/unknown is false).
func Truthy(v relation.Value) bool {
	return v.Kind() == relation.KindBool && v.AsBool()
}

// CollectParams returns the distinct parameter names used anywhere in a
// query, in first-use order.
func CollectParams(n Node) []string {
	var out []string
	seen := map[string]bool{}
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case *Param:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case *Cmp:
			walkExpr(x.L)
			walkExpr(x.R)
		case *And:
			for _, k := range x.Kids {
				walkExpr(k)
			}
		case *Or:
			for _, k := range x.Kids {
				walkExpr(k)
			}
		case *Not:
			walkExpr(x.Kid)
		case *Arith:
			walkExpr(x.L)
			walkExpr(x.R)
		}
	}
	Walk(n, func(x Node) {
		switch q := x.(type) {
		case *Select:
			walkExpr(q.Pred)
		case *Join:
			if q.Cond != nil {
				walkExpr(q.Cond)
			}
		}
	})
	return out
}
