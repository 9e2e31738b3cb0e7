package workload

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/schema"
)

// Marginal returns the product expressing the marginal over the attribute
// subset given as a bitmask (bit i set means attribute i is a grouping
// attribute): Identity on set attributes, Total elsewhere (Section 6.3).
func Marginal(dom *schema.Domain, subset uint) Product {
	d := dom.NumAttrs()
	terms := make([]PredicateSet, d)
	for i := 0; i < d; i++ {
		n := dom.Attr(i).Size
		if subset&(1<<uint(i)) != 0 {
			terms[i] = Identity(n)
		} else {
			terms[i] = Total(n)
		}
	}
	return NewProduct(terms...)
}

// AllMarginals returns the workload of all 2^d marginals.
func AllMarginals(dom *schema.Domain) *Workload {
	d := dom.NumAttrs()
	products := make([]Product, 0, 1<<uint(d))
	for s := uint(0); s < 1<<uint(d); s++ {
		products = append(products, Marginal(dom, s))
	}
	return MustNew(dom, products...)
}

// KWayMarginals returns the workload of all (d choose k) k-way marginals.
func KWayMarginals(dom *schema.Domain, k int) *Workload {
	d := dom.NumAttrs()
	var products []Product
	for s := uint(0); s < 1<<uint(d); s++ {
		if bits.OnesCount(s) == k {
			products = append(products, Marginal(dom, s))
		}
	}
	return MustNew(dom, products...)
}

// UpToKWayMarginals returns all i-way marginals for i <= K (Table 5).
func UpToKWayMarginals(dom *schema.Domain, k int) *Workload {
	d := dom.NumAttrs()
	var products []Product
	for s := uint(0); s < 1<<uint(d); s++ {
		if bits.OnesCount(s) <= k {
			products = append(products, Marginal(dom, s))
		}
	}
	return MustNew(dom, products...)
}

// RangeMarginal is like Marginal but uses AllRange instead of Identity on
// the attributes listed in rangeAttrs (the "range-marginals" workloads of
// Section 8.1, where numeric attributes get range queries).
func RangeMarginal(dom *schema.Domain, subset uint, rangeAttrs map[int]bool) Product {
	d := dom.NumAttrs()
	terms := make([]PredicateSet, d)
	for i := 0; i < d; i++ {
		n := dom.Attr(i).Size
		switch {
		case subset&(1<<uint(i)) == 0:
			terms[i] = Total(n)
		case rangeAttrs[i]:
			terms[i] = AllRange(n)
		default:
			terms[i] = Identity(n)
		}
	}
	return NewProduct(terms...)
}

// AllRangeMarginals returns all 2^d marginals with AllRange substituted on
// the given numeric attributes.
func AllRangeMarginals(dom *schema.Domain, rangeAttrs map[int]bool) *Workload {
	d := dom.NumAttrs()
	products := make([]Product, 0, 1<<uint(d))
	for s := uint(0); s < 1<<uint(d); s++ {
		products = append(products, RangeMarginal(dom, s, rangeAttrs))
	}
	return MustNew(dom, products...)
}

// KWayRangeMarginals returns the k-way variant (Table 3's "2-way
// Range-Marginals").
func KWayRangeMarginals(dom *schema.Domain, k int, rangeAttrs map[int]bool) *Workload {
	d := dom.NumAttrs()
	var products []Product
	for s := uint(0); s < 1<<uint(d); s++ {
		if bits.OnesCount(s) == k {
			products = append(products, RangeMarginal(dom, s, rangeAttrs))
		}
	}
	return MustNew(dom, products...)
}

// Prefix1D, Range1D etc. convenience single-attribute workloads.

// Single wraps one predicate set as a complete 1-attribute workload.
func Single(ps PredicateSet) *Workload {
	dom := schema.Sizes(ps.Cols())
	return MustNew(dom, NewProduct(ps))
}

// Product2D builds a 2-attribute single-product workload Φ×Ψ.
func Product2D(a, b PredicateSet) *Workload {
	dom := schema.Sizes(a.Cols(), b.Cols())
	return MustNew(dom, NewProduct(a, b))
}

// Union2D builds a 2-attribute union-of-products workload.
func Union2D(pairs ...[2]PredicateSet) *Workload {
	if len(pairs) == 0 {
		panic("workload: empty union")
	}
	dom := schema.Sizes(pairs[0][0].Cols(), pairs[0][1].Cols())
	products := make([]Product, len(pairs))
	for i, p := range pairs {
		products[i] = NewProduct(p[0], p[1])
	}
	return MustNew(dom, products...)
}

// WeightForRelativeError reweights a workload's products inversely with the
// L1 norm of their queries (approximated per product by the average query
// support size), the Section 9 heuristic for approximately optimizing
// relative instead of absolute error when the data vector is near uniform:
// small-support queries (small answers) get proportionally more accuracy.
func WeightForRelativeError(w *Workload) *Workload {
	out := &Workload{Domain: w.Domain, Products: make([]Product, len(w.Products))}
	for i, p := range w.Products {
		// Average query L1 norm of the product = ∏ (avg per-term support)
		// where avg support = (Σ column counts)/rows.
		avg := 1.0
		for _, t := range p.Terms {
			total := 0.0
			for _, c := range t.ColCounts() {
				total += c
			}
			avg *= total / float64(t.Rows())
		}
		if avg < 1 {
			avg = 1
		}
		out.Products[i] = Product{Weight: p.Weight / avg, Terms: p.Terms}
	}
	return out
}

// RandPerm returns a deterministic pseudo-random permutation of [0, n).
func RandPerm(n int, seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0xda7a))
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
