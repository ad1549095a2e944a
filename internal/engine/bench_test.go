package engine

import (
	"testing"

	"repro/internal/ra"
	"repro/internal/raparser"
	"repro/internal/relation"
	"repro/internal/testdb"
	"repro/internal/tpch"
)

// joinDB builds two relations with a shared key column of 97 distinct
// values: an equi-join-heavy workload.
func joinDB(n int) *relation.Database {
	db := relation.NewDatabase()
	db.CreateRelation("L", relation.NewSchema(
		relation.Attr("k", relation.KindInt), relation.Attr("a", relation.KindInt)))
	db.CreateRelation("R", relation.NewSchema(
		relation.Attr("k", relation.KindInt), relation.Attr("b", relation.KindInt)))
	for i := 0; i < n; i++ {
		db.Insert("L", relation.NewTuple(relation.Int(int64(i%97)), relation.Int(int64(i))))
		db.Insert("R", relation.NewTuple(relation.Int(int64(i%97)), relation.Int(int64(i))))
	}
	return db
}

// BenchmarkEquiJoin times the hash equi-join (the engine's physical
// layer).
func BenchmarkEquiJoin(b *testing.B) {
	db := joinDB(2000)
	q := raparser.MustParse("rename[x](L) join[x.k = y.k] rename[y](R)")
	for i := 0; i < b.N; i++ {
		if _, err := Run[bool](Set, q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquiJoinProv is the same join under the why-provenance
// semiring, the hot path of witness search.
func BenchmarkEquiJoinProv(b *testing.B) {
	db := joinDB(1000)
	q := raparser.MustParse("rename[x](L) join[x.k = y.k] rename[y](R)")
	for i := 0; i < b.N; i++ {
		if _, err := Run(Why, q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCH times hash joins on customer ⋈ orders and customer ⋈
// orders ⋈ lineitem at TPC-H SF 0.01.
func BenchmarkTPCH(b *testing.B) {
	db := tpch.Generate(0.01, 1)
	two := raparser.MustParse(
		"rename[c](customer) join[c.c_custkey = o.o_custkey] rename[o](orders)")
	three := raparser.MustParse(`
		rename[c](customer)
		join[c.c_custkey = o.o_custkey] rename[o](orders)
		join[o.o_orderkey = l.l_orderkey] rename[l](lineitem)`)
	for _, bc := range []struct {
		name string
		q    ra.Node
	}{
		{"customer-orders/hash", two},
		{"customer-orders-lineitem/hash", three},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run[bool](Set, bc.q, db, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiff times the hash-probed difference on a wide difference (the
// Q1 − Q2 shape of the core loop).
func BenchmarkDiff(b *testing.B) {
	db := joinDB(4000)
	q := raparser.MustParse("project[k, a](L) diff project[k, b](R)")
	for i := 0; i < b.N; i++ {
		if _, err := Run[bool](Set, q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountDistinct measures the counting-semiring cardinality path
// against full provenance on the same query (the witness-search pre-check).
func BenchmarkCountDistinct(b *testing.B) {
	db := joinDB(2000)
	q := raparser.MustParse("project[x.k](rename[x](L) join[x.k = y.k] rename[y](R))")
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CountDistinct(q, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prov", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EvalProv(q, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNaturalHashJoin times a natural join's hash path.
func BenchmarkNaturalHashJoin(b *testing.B) {
	db := joinDB(2000)
	q := raparser.MustParse("L join R")
	for i := 0; i < b.N; i++ {
		if _, err := Eval(q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThetaEquiJoin times a θ-join whose equi-key runs the hash path
// and whose residual filters the matched pairs.
func BenchmarkThetaEquiJoin(b *testing.B) {
	db := joinDB(2000)
	q := raparser.MustParse("rename[x](L) join[x.k = y.k and x.a < y.b] rename[y](R)")
	for i := 0; i < b.N; i++ {
		if _, err := Eval(q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvenanceEvaluation times how-provenance evaluation of Q2 − Q1
// on the running example.
func BenchmarkProvenanceEvaluation(b *testing.B) {
	db := testdb.Example1DB()
	q := &ra.Diff{L: testdb.Q2(), R: testdb.Q1()}
	for i := 0; i < b.N; i++ {
		if _, err := EvalProv(q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupBy times γ with several aggregates.
func BenchmarkGroupBy(b *testing.B) {
	db := joinDB(5000)
	q := raparser.MustParse("groupby[k; count(*) -> c, sum(a) -> s, avg(a) -> m](L)")
	for i := 0; i < b.N; i++ {
		if _, err := Eval(q, db, nil); err != nil {
			b.Fatal(err)
		}
	}
}
