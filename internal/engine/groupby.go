package engine

import (
	"fmt"

	"repro/internal/ra"
	"repro/internal/relation"
)

// groupPlan resolves γ's group and aggregate columns against the input
// schema and derives the output schema. It is shared by the one-shot
// evaluator and the delta rule for γ.
func groupPlan(g *ra.GroupBy, in relation.Schema) (gIdx, aIdx []int, out relation.Schema, err error) {
	gIdx = make([]int, len(g.GroupCols))
	for i, c := range g.GroupCols {
		j, err := in.Resolve(c)
		if err != nil {
			return nil, nil, relation.Schema{}, err
		}
		gIdx[i] = j
	}
	aIdx = make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Attr == "" {
			if a.Func != ra.Count {
				return nil, nil, relation.Schema{}, fmt.Errorf("engine: %s requires an attribute", a.Func)
			}
			aIdx[i] = -1
			continue
		}
		j, err := in.Resolve(a.Attr)
		if err != nil {
			return nil, nil, relation.Schema{}, err
		}
		aIdx[i] = j
	}
	attrs := make([]relation.Attribute, 0, len(gIdx)+len(g.Aggs))
	for i, j := range gIdx {
		attrs = append(attrs, relation.Attribute{Name: g.GroupCols[i], Type: in.Attrs[j].Type})
	}
	for i, a := range g.Aggs {
		typ := relation.KindFloat
		if a.Func == ra.Count {
			typ = relation.KindInt
		} else if aIdx[i] >= 0 && (a.Func == ra.Sum || a.Func == ra.Min || a.Func == ra.Max) {
			typ = in.Attrs[aIdx[i]].Type
		}
		attrs = append(attrs, relation.Attribute{Name: a.As, Type: typ})
	}
	return gIdx, aIdx, relation.Schema{Attrs: attrs}, nil
}

// groupBy evaluates γ over the support of the input (the distinct tuples),
// hash-partitioning into groups. Output rows are annotated One; the
// semiring gate in exec.node restricts this to semirings whose annotations
// carry no per-subinstance information (set, counting).
func (e *exec[T]) groupBy(g *ra.GroupBy, in *Rel[T]) (*Rel[T], error) {
	gIdx, aIdx, outSchema, err := groupPlan(g, in.Schema)
	if err != nil {
		return nil, err
	}
	out := NewRel[T](outSchema)

	groups := map[string][]relation.Tuple{}
	var order []string
	keyTuples := map[string]relation.Tuple{}
	for _, t := range in.Tuples {
		k := t.Project(gIdx)
		ks := k.Key()
		if _, ok := groups[ks]; !ok {
			order = append(order, ks)
			keyTuples[ks] = k
		}
		groups[ks] = append(groups[ks], t)
	}
	for _, ks := range order {
		members := groups[ks]
		row := keyTuples[ks].Clone()
		for i, a := range g.Aggs {
			v, err := computeAgg(a.Func, aIdx[i], members)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		// One output row per distinct group key.
		out.appendDistinct(row, e.s.One())
	}
	return out, nil
}

func computeAgg(f ra.AggFunc, col int, members []relation.Tuple) (relation.Value, error) {
	if f == ra.Count {
		if col < 0 {
			return relation.Int(int64(len(members))), nil
		}
		n := 0
		for _, t := range members {
			if !t[col].IsNull() {
				n++
			}
		}
		return relation.Int(int64(n)), nil
	}
	var vals []relation.Value
	for _, t := range members {
		if !t[col].IsNull() {
			vals = append(vals, t[col])
		}
	}
	if len(vals) == 0 {
		return relation.Null(), nil
	}
	switch f {
	case ra.Sum, ra.Avg:
		acc := vals[0]
		for _, v := range vals[1:] {
			var err error
			acc, err = relation.Add(acc, v)
			if err != nil {
				return relation.Null(), err
			}
		}
		if f == ra.Sum {
			return acc, nil
		}
		return relation.Div(acc, relation.Int(int64(len(vals))))
	case ra.Min, ra.Max:
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := v.Compare(best)
			if !ok {
				return relation.Null(), fmt.Errorf("engine: incomparable values in %s", f)
			}
			if (f == ra.Min && c < 0) || (f == ra.Max && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return relation.Null(), fmt.Errorf("engine: unknown aggregate %v", f)
}
