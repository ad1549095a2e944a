package core

import (
	"repro/internal/ra"
	"repro/internal/relation"
)

// These hooks give the package's external tests, which import packages
// that import core (course), the unexported pipeline steps.

// BaseWitness is baseWitness.
func (p Problem) BaseWitness() (qa, qb ra.Node, t relation.Tuple, err error) {
	return p.baseWitness(nil)
}

// BaseDiffWitness is baseDiff followed by firstWitness, the witness rule
// over both materialized differences, with the pair oriented as
// baseWitness orients it.
func (p Problem) BaseDiffWitness() (qa, qb ra.Node, t relation.Tuple, err error) {
	d12, d21, err := p.baseDiff(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if d12.Len() > 0 {
		return p.Q1, p.Q2, firstWitness(d12, d21), nil
	}
	return p.Q2, p.Q1, firstWitness(d12, d21), nil
}

// WithHavingParams is withHavingParams.
func (p Problem) WithHavingParams() Problem { return p.withHavingParams() }
