package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/testdb"
)

func BenchmarkOptSigmaExample1(b *testing.B) {
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: testdb.Example1DB()}
	for i := 0; i < b.N; i++ {
		if _, _, err := OptSigma(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasicExample1(b *testing.B) {
	p := Problem{Q1: testdb.Q1(), Q2: testdb.Q2(), DB: testdb.Example1DB()}
	for i := 0; i < b.N; i++ {
		if _, _, err := Basic(p, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggOptExample4(b *testing.B) {
	p := Problem{Q1: testdb.AggQ1(), Q2: testdb.AggQ2(), DB: testdb.Example1DB()}
	for i := 0; i < b.N; i++ {
		if _, _, err := AggOpt(p, AggOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggParamExample6(b *testing.B) {
	p := Problem{Q1: testdb.HavingQ1(), Q2: testdb.HavingQ2(), DB: testdb.Example1DB()}
	for i := 0; i < b.N; i++ {
		if _, _, err := AggBasic(p, AggOptions{Parameterize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem3Reduction(b *testing.B) {
	p := theorem3Instance(figure11Graph())
	for i := 0; i < b.N; i++ {
		if _, _, err := OptSigma(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggProvenance(b *testing.B) {
	db := testdb.Example1DB()
	q := testdb.HavingQ2()
	for i := 0; i < b.N; i++ {
		if _, err := evalAggProv(q, db, nil, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
