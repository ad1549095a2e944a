// Package tpch provides a deterministic TPC-H-style data generator and the
// relational algebra forms of the benchmark queries used in the paper's
// aggregate experiments (Section 7.2): Q4, Q16, Q18, Q21, and the modified
// Q21-S with an extra selection on the aggregate. For each query it also
// provides two deliberately wrong variants with the error classes the paper
// injected: different selection conditions, incorrect use of difference,
// and incorrect position of projection.
//
// The paper ran at scale factor 1 on SQL Server; this in-memory
// reproduction uses a row-count scale where Scale(sf) generates sf × the
// official table cardinalities. The harness sweeps sf; the query structure
// (multi-way joins, semijoin/antijoin via difference, group sizes
// proportional to scale) is preserved.
package tpch

import (
	"math/rand"

	"repro/internal/relation"
)

// Cardinalities at scale factor 1 (official TPC-H).
const (
	baseCustomers = 150000
	baseOrders    = 1500000
	baseLineitems = 6000000
	baseSuppliers = 10000
	baseParts     = 200000
	basePartsupp  = 800000
)

var (
	nations    = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41"}
	types      = []string{"STANDARD ANODIZED", "SMALL PLATED", "MEDIUM POLISHED", "LARGE BURNISHED", "ECONOMY BRUSHED", "PROMO TIN"}
	statuses   = []string{"F", "O", "P"}
)

// Generate builds a TPC-H instance with sf × the official cardinalities,
// deterministically from the seed. Dates are encoded as integer day
// numbers; day 0 is 1992-01-01, and the 7-year order window spans days
// [0, 2557).
func Generate(sf float64, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()

	db.CreateRelation("region", relation.NewSchema(
		relation.Attr("r_regionkey", relation.KindInt),
		relation.Attr("r_name", relation.KindString)))
	for i, r := range regions {
		db.Insert("region", relation.NewTuple(relation.Int(int64(i)), relation.String(r)))
	}

	db.CreateRelation("nation", relation.NewSchema(
		relation.Attr("n_nationkey", relation.KindInt),
		relation.Attr("n_name", relation.KindString),
		relation.Attr("n_regionkey", relation.KindInt)))
	for i, n := range nations {
		db.Insert("nation", relation.NewTuple(
			relation.Int(int64(i)), relation.String(n), relation.Int(int64(i%len(regions)))))
	}

	nSupp := scaled(baseSuppliers, sf, 3)
	db.CreateRelation("supplier", relation.NewSchema(
		relation.Attr("s_suppkey", relation.KindInt),
		relation.Attr("s_name", relation.KindString),
		relation.Attr("s_nationkey", relation.KindInt),
		relation.Attr("s_comment", relation.KindString)))
	for i := 1; i <= nSupp; i++ {
		comment := "ok"
		if rng.Intn(8) == 0 {
			comment = "Customer Complaints"
		}
		db.Insert("supplier", relation.NewTuple(
			relation.Int(int64(i)),
			relation.String(suppName(i)),
			relation.Int(int64(rng.Intn(len(nations)))),
			relation.String(comment)))
	}

	nPart := scaled(baseParts, sf, 4)
	db.CreateRelation("part", relation.NewSchema(
		relation.Attr("p_partkey", relation.KindInt),
		relation.Attr("p_brand", relation.KindString),
		relation.Attr("p_type", relation.KindString),
		relation.Attr("p_size", relation.KindInt)))
	for i := 1; i <= nPart; i++ {
		db.Insert("part", relation.NewTuple(
			relation.Int(int64(i)),
			relation.String(brands[rng.Intn(len(brands))]),
			relation.String(types[rng.Intn(len(types))]),
			relation.Int(int64(1+rng.Intn(50)))))
	}

	// Below sf ≈ 0.0005 the scaled count can exceed the nPart×nSupp
	// distinct pairs there are, and the loop below would never finish.
	nPS := min(scaled(basePartsupp, sf, 6), nPart*nSupp)
	db.CreateRelation("partsupp", relation.NewSchema(
		relation.Attr("ps_partkey", relation.KindInt),
		relation.Attr("ps_suppkey", relation.KindInt),
		relation.Attr("ps_availqty", relation.KindInt)))
	seenPS := map[[2]int]bool{}
	for len(seenPS) < nPS {
		pk := 1 + rng.Intn(nPart)
		sk := 1 + rng.Intn(nSupp)
		if seenPS[[2]int{pk, sk}] {
			continue
		}
		seenPS[[2]int{pk, sk}] = true
		db.Insert("partsupp", relation.NewTuple(
			relation.Int(int64(pk)), relation.Int(int64(sk)), relation.Int(int64(1+rng.Intn(9999)))))
	}

	nCust := scaled(baseCustomers, sf, 5)
	db.CreateRelation("customer", relation.NewSchema(
		relation.Attr("c_custkey", relation.KindInt),
		relation.Attr("c_name", relation.KindString),
		relation.Attr("c_nationkey", relation.KindInt)))
	for i := 1; i <= nCust; i++ {
		db.Insert("customer", relation.NewTuple(
			relation.Int(int64(i)), relation.String(custName(i)), relation.Int(int64(rng.Intn(len(nations))))))
	}

	nOrd := scaled(baseOrders, sf, 8)
	db.CreateRelation("orders", relation.NewSchema(
		relation.Attr("o_orderkey", relation.KindInt),
		relation.Attr("o_custkey", relation.KindInt),
		relation.Attr("o_orderstatus", relation.KindString),
		relation.Attr("o_orderdate", relation.KindInt),
		relation.Attr("o_orderpriority", relation.KindString)))
	orderDates := make([]int, nOrd+1)
	for i := 1; i <= nOrd; i++ {
		date := rng.Intn(2557)
		orderDates[i] = date
		db.Insert("orders", relation.NewTuple(
			relation.Int(int64(i)),
			relation.Int(int64(1+rng.Intn(nCust))),
			relation.String(statuses[rng.Intn(len(statuses))]),
			relation.Int(int64(date)),
			relation.String(priorities[rng.Intn(len(priorities))])))
	}

	db.CreateRelation("lineitem", relation.NewSchema(
		relation.Attr("l_orderkey", relation.KindInt),
		relation.Attr("l_linenumber", relation.KindInt),
		relation.Attr("l_suppkey", relation.KindInt),
		relation.Attr("l_partkey", relation.KindInt),
		relation.Attr("l_quantity", relation.KindInt),
		relation.Attr("l_commitdate", relation.KindInt),
		relation.Attr("l_receiptdate", relation.KindInt)))
	perOrder := float64(baseLineitems) / float64(baseOrders)
	for o := 1; o <= nOrd; o++ {
		n := 1 + rng.Intn(int(2*perOrder))
		for ln := 1; ln <= n; ln++ {
			commit := orderDates[o] + 30 + rng.Intn(60)
			receipt := commit - 10 + rng.Intn(40) // ~25% late (receipt > commit)
			db.Insert("lineitem", relation.NewTuple(
				relation.Int(int64(o)),
				relation.Int(int64(ln)),
				relation.Int(int64(1+rng.Intn(nSupp))),
				relation.Int(int64(1+rng.Intn(nPart))),
				relation.Int(int64(1+rng.Intn(50))),
				relation.Int(int64(commit)),
				relation.Int(int64(receipt))))
		}
	}
	return db
}

func scaled(base int, sf float64, min int) int {
	n := int(float64(base) * sf)
	if n < min {
		n = min
	}
	return n
}

func suppName(i int) string { return "Supplier#" + pad9(i) }
func custName(i int) string { return "Customer#" + pad9(i) }

func pad9(i int) string {
	s := ""
	for d := 100000000; d >= 1; d /= 10 {
		s += string(rune('0' + (i/d)%10))
	}
	return s
}

// Constraints returns the TPC-H referential constraints relevant to the
// experiment queries.
func Constraints() []relation.Constraint {
	return []relation.Constraint{
		relation.Key{Relation: "orders", Attrs: []string{"o_orderkey"}},
		relation.Key{Relation: "customer", Attrs: []string{"c_custkey"}},
		relation.Key{Relation: "supplier", Attrs: []string{"s_suppkey"}},
		relation.Key{Relation: "part", Attrs: []string{"p_partkey"}},
		relation.Key{Relation: "lineitem", Attrs: []string{"l_orderkey", "l_linenumber"}},
		relation.ForeignKey{ChildRel: "orders", ChildAttrs: []string{"o_custkey"},
			ParentRel: "customer", ParentAttrs: []string{"c_custkey"}},
		relation.ForeignKey{ChildRel: "lineitem", ChildAttrs: []string{"l_orderkey"},
			ParentRel: "orders", ParentAttrs: []string{"o_orderkey"}},
		relation.ForeignKey{ChildRel: "lineitem", ChildAttrs: []string{"l_suppkey"},
			ParentRel: "supplier", ParentAttrs: []string{"s_suppkey"}},
		relation.ForeignKey{ChildRel: "partsupp", ChildAttrs: []string{"ps_partkey"},
			ParentRel: "part", ParentAttrs: []string{"p_partkey"}},
		relation.ForeignKey{ChildRel: "partsupp", ChildAttrs: []string{"ps_suppkey"},
			ParentRel: "supplier", ParentAttrs: []string{"s_suppkey"}},
	}
}
