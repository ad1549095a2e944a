package main

// Answer checks. Every check recomputes what it needs apart from the
// program: tuples are looked up in the benchmark's own regeneration of the
// instance, keys and foreign keys are checked here, and query results come
// from the reference evaluator in refeval.go. No check compares against a
// stored copy of an earlier output.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/relation"
)

// checkCounterexample checks one explanation: ce must be a subinstance of
// inst (same ids, same relations, same values), satisfy the keys and
// foreign keys, and make q1 and q2 disagree under the reference evaluator
// with the returned parameters and query rewrites. When optimal is set,
// removing any one tuple that leaves the foreign keys satisfied must lose
// the witness.
func checkCounterexample(inst *relation.Database, cons []relation.Constraint, q1, q2 ra.Node, ce *core.Counterexample, optimal bool) error {
	if ce == nil || ce.DB == nil {
		return fmt.Errorf("no counterexample returned")
	}
	tuples := map[relation.TupleID]bool{}
	for _, name := range ce.DB.Names() {
		r := ce.DB.Relation(name)
		for i, t := range r.Tuples {
			id := r.ID(i)
			rel, want, ok := inst.Lookup(id)
			if !ok || rel != name || !t.Identical(want) {
				return fmt.Errorf("tuple %v of %s (id %d) is not in the instance", t, name, id)
			}
			tuples[id] = true
		}
	}
	if len(tuples) != len(ce.IDs) {
		return fmt.Errorf("counterexample lists %d ids but holds %d tuples", len(ce.IDs), len(tuples))
	}
	for _, id := range ce.IDs {
		if !tuples[id] {
			return fmt.Errorf("listed id %d is not among the counterexample's tuples", id)
		}
	}
	if err := checkConstraints(ce.DB, cons); err != nil {
		return err
	}
	params := ce.Params
	if ce.Q1 != nil && ce.Q2 != nil {
		q1, q2 = ce.Q1, ce.Q2
	}
	d12, d21, err := refDiffers(q1, q2, ce.DB, params)
	if err != nil {
		return err
	}
	if len(d12) == 0 && len(d21) == 0 {
		return fmt.Errorf("the queries agree on the counterexample")
	}
	if !optimal || ce.Witness == nil {
		return nil
	}
	// The witness must lie in one direction of the difference; removing any
	// one tuple that keeps the foreign keys must take it out of that
	// direction.
	inDir := func(d []relation.Tuple) bool { return hasPrefix(d, ce.Witness) }
	var q, other ra.Node
	switch {
	case inDir(d12):
		q, other = q1, q2
	case inDir(d21):
		q, other = q2, q1
	default:
		return fmt.Errorf("witness %v is in neither direction of the difference", ce.Witness)
	}
	for _, drop := range ce.IDs {
		keep := map[relation.TupleID]bool{}
		for _, id := range ce.IDs {
			keep[id] = id != drop
		}
		sub := ce.DB.Subinstance(keep)
		if checkForeignKeys(sub, cons) != nil {
			continue
		}
		d, _, err := refDiffers(q, other, sub, params)
		if err != nil {
			return err
		}
		if inDir(d) {
			return fmt.Errorf("reported optimal, but the witness survives removing tuple %d", drop)
		}
	}
	return nil
}

// hasPrefix reports whether some row starts with the values of w. A
// witness is a whole output tuple, or the group key of an aggregate.
func hasPrefix(rows []relation.Tuple, w relation.Tuple) bool {
	for _, r := range rows {
		if len(r) >= len(w) && relation.Tuple(r[:len(w)]).Identical(w) {
			return true
		}
	}
	return false
}

// checkConstraints checks keys and foreign keys.
func checkConstraints(db *relation.Database, cons []relation.Constraint) error {
	for _, c := range cons {
		k, ok := c.(relation.Key)
		if !ok {
			continue
		}
		r := db.Relation(k.Relation)
		cols, err := columns(r.Schema, k.Attrs)
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, t := range r.Tuples {
			key := t.Project(cols).Key()
			if seen[key] {
				return fmt.Errorf("key %s(%s) repeats %v", k.Relation, strings.Join(k.Attrs, ","), t.Project(cols))
			}
			seen[key] = true
		}
	}
	return checkForeignKeys(db, cons)
}

func checkForeignKeys(db *relation.Database, cons []relation.Constraint) error {
	for _, c := range cons {
		fk, ok := c.(relation.ForeignKey)
		if !ok {
			continue
		}
		child, parent := db.Relation(fk.ChildRel), db.Relation(fk.ParentRel)
		cc, err := columns(child.Schema, fk.ChildAttrs)
		if err != nil {
			return err
		}
		pc, err := columns(parent.Schema, fk.ParentAttrs)
		if err != nil {
			return err
		}
		parents := map[string]bool{}
		for _, t := range parent.Tuples {
			parents[t.Project(pc).Key()] = true
		}
		for _, t := range child.Tuples {
			ref := t.Project(cc)
			null := false
			for _, v := range ref {
				null = null || v.IsNull()
			}
			if !null && !parents[ref.Key()] {
				return fmt.Errorf("%s tuple %v has no parent in %s", fk.ChildRel, t, fk.ParentRel)
			}
		}
	}
	return nil
}

func columns(s relation.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		var err error
		if out[i], err = s.Resolve(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}
