// Package census reconstructs the SF1 / SF1⁺ workloads of Section 2 in the
// compact 32-product logical form of Example 5 / Example 7. The exact 2010
// Summary File 1 tabulation definitions are not available offline, so the
// products below are a synthetic stand-in with the properties the paper's
// experiments depend on: the exact CPH schema (2×2×64×17×115, ×51 with
// state), exactly 32 union terms, exactly 4151 national predicate counting
// queries, and SF1⁺ = the same products with a (Total ∪ Identity) predicate
// set on State, giving 4151·52 = 215,852 queries. See DESIGN.md §4.
package census

import (
	"fmt"
	"math/bits"

	"repro/internal/mat"
	"repro/internal/schema"
	"repro/internal/workload"
)

// CPHDomain returns the Person schema of Section 2 with the six binary race
// attributes merged into one 64-value attribute (Example 1).
func CPHDomain(withState bool) *schema.Domain {
	attrs := []schema.Attribute{
		{Name: "hispanic", Size: 2},
		{Name: "sex", Size: 2},
		{Name: "race", Size: 64},
		{Name: "relationship", Size: 17},
		{Name: "age", Size: 115},
	}
	if withState {
		attrs = append(attrs, schema.Attribute{Name: "state", Size: 51})
	}
	return schema.NewDomain(attrs...)
}

// --- per-attribute predicate-set building blocks ---

// ageGroups returns the SF1 P12-style age buckets: the full range plus
// five-year groups [0,4], [5,9], ... [80,84] and [85,114].
func ageGroups() workload.PredicateSet {
	rows := [][2]int{{0, 114}}
	for lo := 0; lo <= 80; lo += 5 {
		rows = append(rows, [2]int{lo, lo + 4})
	}
	rows = append(rows, [2]int{85, 114})
	return rangeSet("ageGroups", 115, rows)
}

// ageAdult returns the two predicates age < 18 and age >= 18.
func ageAdult() workload.PredicateSet {
	return rangeSet("ageAdult", 115, [][2]int{{0, 17}, {18, 114}})
}

// ageSingleYears returns point predicates for the first k single years of
// age (used by tabulations like P14, single years for the young).
func ageSingleYears(k int) workload.PredicateSet {
	m := mat.NewDense(k, 115)
	for i := 0; i < k; i++ {
		m.Set(i, i, 1)
	}
	return workload.NewExplicit(fmt.Sprintf("ageYears(%d)", k), m)
}

// raceAlone returns 7 predicates over the merged 64-value race attribute:
// the six "race i alone" codes (exactly one bit set) plus "two or more
// races" (the disjunction Example 1 motivates the merge with).
func raceAlone() workload.PredicateSet {
	m := mat.NewDense(7, 64)
	for i := 0; i < 6; i++ {
		m.Set(i, 1<<uint(i), 1)
	}
	for code := 0; code < 64; code++ {
		if bits.OnesCount(uint(code)) >= 2 {
			m.Set(6, code, 1)
		}
	}
	return workload.NewExplicit("raceAlone", m)
}

// raceInCombination returns 6 predicates "race i alone or in combination"
// (bit i set, any other bits free).
func raceInCombination() workload.PredicateSet {
	m := mat.NewDense(6, 64)
	for i := 0; i < 6; i++ {
		for code := 0; code < 64; code++ {
			if code&(1<<uint(i)) != 0 {
				m.Set(i, code, 1)
			}
		}
	}
	return workload.NewExplicit("raceInComb", m)
}

// relHousehold returns grouped relationship predicates: householder,
// spouse/partner, child, other relatives, non-relatives.
func relHousehold() workload.PredicateSet {
	groups := [][]int{{0}, {1, 13}, {2, 3, 4}, {5, 6, 7, 8, 9, 10}, {11, 12, 14, 15, 16}}
	m := mat.NewDense(len(groups), 17)
	for r, g := range groups {
		for _, c := range g {
			m.Set(r, c, 1)
		}
	}
	return workload.NewExplicit("relGroups", m)
}

func rangeSet(name string, n int, ranges [][2]int) workload.PredicateSet {
	m := mat.NewDense(len(ranges), n)
	for r, rg := range ranges {
		for c := rg[0]; c <= rg[1]; c++ {
			m.Set(r, c, 1)
		}
	}
	return workload.NewExplicit(name, m)
}

// TargetQueries is the national SF1 query count from Section 2.
const TargetQueries = 4151

// SF1 returns the synthetic national workload: 32 products, 4151 queries
// over the 500,480-element CPH domain.
func SF1() *workload.Workload {
	dom := CPHDomain(false)
	products := buildProducts()
	w := workload.MustNew(dom, products...)
	if got := w.NumQueries(); got != TargetQueries {
		panic(fmt.Sprintf("census: SF1 has %d queries, want %d", got, TargetQueries))
	}
	if len(w.Products) != 32 {
		panic(fmt.Sprintf("census: SF1 has %d products, want 32", len(w.Products)))
	}
	return w
}

// SF1Plus returns the synthetic SF1⁺ workload: the same 32 products with a
// (Total ∪ Identity) predicate set on State, i.e. national plus per-state
// counts — 4151·52 = 215,852 queries over the 25,524,480-element domain.
func SF1Plus() *workload.Workload {
	dom := CPHDomain(true)
	base := buildProducts()
	products := make([]workload.Product, len(base))
	for i, p := range base {
		terms := append(append([]workload.PredicateSet(nil), p.Terms...), stateNationalAndIdentity())
		products[i] = workload.Product{Weight: p.Weight, Terms: terms}
	}
	w := workload.MustNew(dom, products...)
	if got := w.NumQueries(); got != TargetQueries*52 {
		panic(fmt.Sprintf("census: SF1+ has %d queries, want %d", got, TargetQueries*52))
	}
	return w
}

// stateNationalAndIdentity is Total stacked on Identity over the 51 states:
// the "adding True to the Identity predicate set" reduction of Example 5.
func stateNationalAndIdentity() workload.PredicateSet {
	m := mat.NewDense(52, 51)
	for j := 0; j < 51; j++ {
		m.Set(0, j, 1)
	}
	for i := 0; i < 51; i++ {
		m.Set(i+1, i, 1)
	}
	return workload.NewExplicit("state(T∪I)", m)
}

// buildProducts constructs the 32 products. Attribute order:
// hispanic(2), sex(2), race(64), relationship(17), age(115).
func buildProducts() []workload.Product {
	T2, I2 := workload.Total(2), workload.Identity(2)
	T64, I64 := workload.Total(64), workload.Identity(64)
	T17, I17 := workload.Total(17), workload.Identity(17)
	T115, I115 := workload.Total(115), workload.Identity(115)
	ag, aa := ageGroups(), ageAdult()
	ra, rc := raceAlone(), raceInCombination()
	rel := relHousehold()

	mk := func(h, s, r, re, a workload.PredicateSet) workload.Product {
		return workload.NewProduct(h, s, r, re, a)
	}
	products := []workload.Product{
		mk(T2, T2, T64, T17, T115), // 1: total population (P1)
		mk(I2, T2, T64, T17, T115), // 2: hispanic origin (P4)
		mk(T2, I2, T64, T17, T115), // 3: sex
		mk(T2, T2, ra, T17, T115),  // 7: race alone (P3)
		mk(T2, T2, rc, T17, T115),  // 6: race in combination (P6)
		mk(I2, T2, ra, T17, T115),  // 14: hispanic × race (P5)
		mk(T2, I2, T64, T17, ag),   // 38: sex × age groups (P12)
		mk(T2, T2, T64, I17, T115), // 17: relationship (P29)
		mk(T2, I2, T64, I17, T115), // 34: sex × relationship
		mk(T2, T2, I64, T17, T115), // 64: full race detail (P8)
		mk(I2, T2, I64, T17, T115), // 128: hispanic × full race (P9)
		mk(T2, I2, ra, T17, ag),    // 266: sex × race alone × age groups (P12A-G)
		mk(I2, I2, ra, T17, T115),  // 28: hispanic × sex × race
		mk(T2, T2, ra, I17, T115),  // 119: race × relationship (P29A-G)
		mk(T2, I2, T64, T17, I115), // 230: sex × single age (P12 detail)
		mk(T2, T2, T64, T17, I115), // 115: single years of age
		mk(I2, T2, T64, T17, ag),   // 38: hispanic × age groups
		mk(T2, I2, rc, T17, aa),    // 24: sex × race-in-comb × adult
		mk(I2, I2, T64, T17, aa),   // 8: hispanic × sex × adult (P11)
		mk(T2, T2, I64, T17, aa),   // 128: full race × adult (P10)
		mk(I2, I2, I64, T17, aa),   // 512: hispanic × sex × full race × adult
		mk(T2, T2, T64, rel, T115), // 5: grouped relationship
		mk(T2, I2, T64, rel, aa),   // 20: sex × rel groups × adult
		mk(I2, I2, ra, I17, T115),  // 476: hispanic × sex × race × relationship
		mk(T2, I2, ra, T17, aa),    // 28: sex × race × adult
		mk(I2, T2, ra, T17, ag),    // 266: hispanic × race × age groups
		mk(I2, I2, T64, T17, ag),   // 76: hispanic × sex × age groups
		mk(T2, T2, T64, I17, aa),   // 34: relationship × adult (P29 by age)
		mk(T2, I2, T64, rel, ag),   // 190: sex × rel groups × age groups
		mk(I2, T2, T64, I17, T115), // 34: hispanic × relationship
		mk(T2, I2, T64, rel, I115), // 1150: sex × rel groups × single age (P13-like detail)
	}
	// Filler 32nd product: single years of age for children by sex, sized
	// to land exactly on the 4151 national-query target.
	subtotal := 0
	for _, p := range products {
		subtotal += p.Rows()
	}
	remaining := TargetQueries - subtotal
	if remaining <= 0 || remaining > 115 {
		panic(fmt.Sprintf("census: filler needs %d queries; adjust product table", remaining))
	}
	products = append(products, mk(T2, T2, T64, T17, ageSingleYears(remaining)))
	return products
}
