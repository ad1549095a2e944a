package core

import (
	"fmt"

	"repro/internal/boolexpr"
	"repro/internal/engine"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/smt"
)

// aggGroup is the symbolic provenance of one output group of an aggregate
// query (one row of Table 2 in the paper): an existence expression over the
// base tuple variables, symbolic aggregate values, and the symbolic HAVING
// condition for this group.
type aggGroup struct {
	// Key holds the group-by column values.
	Key relation.Tuple
	// Exists is the disjunction of the member tuples' how-provenance: the
	// group appears in the result iff Exists holds (and Having passes).
	Exists *boolexpr.Expr
	// Aggs are the symbolic aggregate values, parallel to the GroupBy's
	// AggSpecs.
	Aggs []*smt.AggValue
	// Having is the group's symbolic HAVING condition (⊤ if none).
	Having smt.Formula
	// Size is the number of member tuples of the group in the full input.
	Size int
}

// presence returns the full symbolic condition for the group to appear in
// the query result: existence ∧ having.
func (g *aggGroup) presence() smt.Formula {
	return smt.And(&smt.FProv{E: g.Exists}, g.Having)
}

// outCol describes one output column of an aggregate query: either a
// group-by column (Idx into Key) or an aggregate (Idx into Aggs).
type outCol struct {
	IsAgg bool
	Idx   int
}

// aggProvResult is the aggregate-provenance annotation of a query of the
// shape π? σ*(HAVING) γ(Q') (Section 5.2).
type aggProvResult struct {
	Spec    ra.TopAggregate
	Groups  []*aggGroup
	OutCols []outCol

	byKey map[string]*aggGroup
}

// groupByKey finds the group with the given key tuple, or nil.
func (r *aggProvResult) groupByKey(key relation.Tuple) *aggGroup {
	return r.byKey[key.Key()]
}

// evalAggProv computes aggregate provenance (Section 5.2) for a query of the
// shape π? σ*(HAVING) γ(Q'), which must match ra.MatchTopAggregate: the
// how-provenance of Q' under opts' budget, grouped into symbolic aggregate
// values with guarded terms.
func evalAggProv(q ra.Node, db *relation.Database, params map[string]relation.Value, opts engine.Options) (*aggProvResult, error) {
	spec, ok := ra.MatchTopAggregate(q)
	if !ok {
		return nil, fmt.Errorf("core: query shape unsupported for aggregate provenance (want π? σ* γ(Q')): %s", q)
	}
	ann, err := engine.EvalProvOpts(spec.Inner, db, params, opts)
	if err != nil {
		return nil, err
	}
	g := spec.Group
	gIdx := make([]int, len(g.GroupCols))
	for i, c := range g.GroupCols {
		j, err := ann.Schema.Resolve(c)
		if err != nil {
			return nil, err
		}
		gIdx[i] = j
	}
	aIdx := make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Attr == "" {
			if a.Func != ra.Count {
				return nil, fmt.Errorf("core: %s requires an attribute", a.Func)
			}
			aIdx[i] = -1
			continue
		}
		j, err := ann.Schema.Resolve(a.Attr)
		if err != nil {
			return nil, err
		}
		aIdx[i] = j
	}

	// Group the annotated tuples.
	res := &aggProvResult{Spec: spec, byKey: map[string]*aggGroup{}}
	var order []string
	members := map[string][]int{}
	keys := map[string]relation.Tuple{}
	for i, t := range ann.Tuples {
		k := t.Project(gIdx)
		ks := k.Key()
		if _, ok := members[ks]; !ok {
			order = append(order, ks)
			keys[ks] = k
		}
		members[ks] = append(members[ks], i)
	}

	// Group-by output schema, used to translate HAVING predicates.
	gbSchema, err := ra.OutSchema(g, engine.Catalog{DB: db})
	if err != nil {
		return nil, err
	}

	for _, ks := range order {
		grp := &aggGroup{Key: keys[ks], Size: len(members[ks])}
		var exists []*boolexpr.Expr
		grp.Aggs = make([]*smt.AggValue, len(g.Aggs))
		for ai := range g.Aggs {
			grp.Aggs[ai] = &smt.AggValue{Func: g.Aggs[ai].Func}
		}
		for _, mi := range members[ks] {
			prov := ann.Anns[mi]
			t := ann.Tuples[mi]
			exists = append(exists, prov)
			for ai := range g.Aggs {
				var v float64
				if aIdx[ai] < 0 {
					v = 1 // COUNT(*): every member contributes 1
				} else {
					val := t[aIdx[ai]]
					if val.IsNull() {
						continue // NULLs do not contribute to aggregates
					}
					if g.Aggs[ai].Func == ra.Count {
						v = 1 // COUNT(attr): each non-NULL value counts 1
					} else {
						if !val.IsNumeric() {
							return nil, fmt.Errorf("core: aggregate %s over non-numeric value %v", g.Aggs[ai].Func, val)
						}
						v = val.AsFloat()
					}
				}
				grp.Aggs[ai].Terms = append(grp.Aggs[ai].Terms, smt.AggTerm{Guard: prov, Value: v})
			}
		}
		grp.Exists = boolexpr.Or(exists...)

		// Translate the HAVING predicates for this group.
		having := smt.Formula(&smt.FConst{Val: true})
		for _, sel := range spec.Havings {
			f, err := translateHaving(sel.Pred, gbSchema, g, grp, params)
			if err != nil {
				return nil, err
			}
			having = smt.And(having, f)
		}
		grp.Having = having
		res.Groups = append(res.Groups, grp)
		res.byKey[ks] = grp
	}

	// Output columns: projection over the group-by output, or all of it.
	if spec.Proj == nil {
		for i := range g.GroupCols {
			res.OutCols = append(res.OutCols, outCol{IsAgg: false, Idx: i})
		}
		for i := range g.Aggs {
			res.OutCols = append(res.OutCols, outCol{IsAgg: true, Idx: i})
		}
	} else {
		for _, c := range spec.Proj.Cols {
			j, err := gbSchema.Resolve(c)
			if err != nil {
				return nil, err
			}
			if j < len(g.GroupCols) {
				res.OutCols = append(res.OutCols, outCol{IsAgg: false, Idx: j})
			} else {
				res.OutCols = append(res.OutCols, outCol{IsAgg: true, Idx: j - len(g.GroupCols)})
			}
		}
	}
	return res, nil
}

// translateHaving converts a HAVING predicate over the group-by output
// schema into a symbolic smt formula for a specific group: group-column
// references become constants, aggregate-column references become symbolic
// aggregate operands.
func translateHaving(e ra.Expr, gbSchema relation.Schema, g *ra.GroupBy, grp *aggGroup, params map[string]relation.Value) (smt.Formula, error) {
	switch x := e.(type) {
	case *ra.And:
		out := smt.Formula(&smt.FConst{Val: true})
		for _, k := range x.Kids {
			f, err := translateHaving(k, gbSchema, g, grp, params)
			if err != nil {
				return nil, err
			}
			out = smt.And(out, f)
		}
		return out, nil
	case *ra.Or:
		out := smt.Formula(&smt.FConst{Val: false})
		for _, k := range x.Kids {
			f, err := translateHaving(k, gbSchema, g, grp, params)
			if err != nil {
				return nil, err
			}
			out = smt.Or(out, f)
		}
		return out, nil
	case *ra.Not:
		f, err := translateHaving(x.Kid, gbSchema, g, grp, params)
		if err != nil {
			return nil, err
		}
		return smt.Not(f), nil
	case *ra.Cmp:
		l, err := translateOperand(x.L, gbSchema, g, grp, params)
		if err != nil {
			return nil, err
		}
		r, err := translateOperand(x.R, gbSchema, g, grp, params)
		if err != nil {
			return nil, err
		}
		return &smt.FCmp{Op: x.Op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("core: unsupported HAVING predicate %s", e)
}

func translateOperand(e ra.Expr, gbSchema relation.Schema, g *ra.GroupBy, grp *aggGroup, params map[string]relation.Value) (smt.Operand, error) {
	switch x := e.(type) {
	case *ra.Const:
		if !x.Val.IsNumeric() {
			return smt.Operand{}, fmt.Errorf("core: non-numeric constant %v in HAVING", x.Val)
		}
		return smt.ConstOp(x.Val.AsFloat()), nil
	case *ra.Param:
		if v, ok := params[x.Name]; ok && v.IsNumeric() {
			// Bound parameter: treat as a constant unless parameterization
			// keeps it symbolic (the caller controls this by omitting the
			// binding).
			return smt.ConstOp(v.AsFloat()), nil
		}
		return smt.ParamOp(x.Name), nil
	case *ra.AttrRef:
		j, err := gbSchema.Resolve(x.Name)
		if err != nil {
			return smt.Operand{}, err
		}
		if j < len(g.GroupCols) {
			v := grp.Key[j]
			if !v.IsNumeric() {
				return smt.Operand{}, fmt.Errorf("core: non-numeric group column %s in HAVING comparison", x.Name)
			}
			return smt.ConstOp(v.AsFloat()), nil
		}
		return smt.AggOp(grp.Aggs[j-len(g.GroupCols)]), nil
	}
	return smt.Operand{}, fmt.Errorf("core: unsupported HAVING operand %s", e)
}
