package mech

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/workload"
)

// productOracle answers p without the batch path: the per-product Kronecker
// sweep over the term matrices, scaled by the weight the way the batch path
// scales it.
func productOracle(t testing.TB, p workload.Product, x []float64) []float64 {
	t.Helper()
	ms := make([]*mat.Dense, len(p.Terms))
	for i, term := range p.Terms {
		ms[i] = term.Matrix()
	}
	op := kron.NewProduct(ms...)
	rows, _ := op.Dims()
	ans := make([]float64, rows)
	op.MatVec(ans, x)
	if p.Weight != 1 {
		for i := range ans {
			ans[i] *= p.Weight
		}
	}
	return ans
}

// requireBitIdentical fails unless every slot of got is Float64bits-equal
// to the oracle's answer for its product.
func requireBitIdentical(t *testing.T, products []workload.Product, x []float64, got [][]float64) {
	t.Helper()
	if len(got) != len(products) {
		t.Fatalf("%d slots, want %d", len(got), len(products))
	}
	for i, p := range products {
		want := productOracle(t, p, x)
		if len(got[i]) != len(want) {
			t.Fatalf("product %d: %d answers, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("product %d answer %d: %v, want %v", i, j, got[i][j], want[j])
			}
		}
	}
}

// opaqueSet is a predicate set whose dynamic type is not comparable (it
// carries a func), so it can key neither a group nor a trie node.
type opaqueSet struct {
	workload.PredicateSet
	onMatrix func()
}

func (o opaqueSet) Matrix() *mat.Dense {
	if o.onMatrix != nil {
		o.onMatrix()
	}
	return o.PredicateSet.Matrix()
}

// countingSet counts the contractions that materialize its matrix.
type countingSet struct {
	workload.PredicateSet
	calls atomic.Int32
}

func (c *countingSet) Matrix() *mat.Dense {
	c.calls.Add(1)
	return c.PredicateSet.Matrix()
}

// cphLikeSizes is a small domain shaped like the census schema: two binary
// attributes, a wide one, a narrow one, and a trailing one every spec keeps.
var cphLikeSizes = []int{2, 2, 8, 5, 7}

func cphLikeX() []float64 {
	n := 1
	for _, s := range cphLikeSizes {
		n *= s
	}
	rng := rand.New(rand.NewPCG(18, 5))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 100
	}
	return x
}

// TestAnswerBatchTrieMatchesPerProduct pins every slot of the suffix-trie
// evaluator to the per-product sweep, bit for bit, across the sharing
// patterns the trie distinguishes, at Workers 1/4/8, copied and shared.
func TestAnswerBatchTrieMatchesPerProduct(t *testing.T) {
	d := len(cphLikeSizes)
	// Two instance families per attribute: a[i] and b[i] differ in
	// structure, so swapping one changes the product.
	a := []workload.PredicateSet{
		workload.Identity(2), workload.Total(2), workload.Prefix(8), workload.AllRange(5), workload.Total(7),
	}
	b := []workload.PredicateSet{
		workload.Total(2), workload.Identity(2), workload.WidthRange(8, 3), workload.Identity(5), workload.Prefix(7),
	}
	// suffixShare returns the product sharing its last l terms with a.
	suffixShare := func(l int) workload.Product {
		terms := make([]workload.PredicateSet, d)
		for i := range terms {
			if i >= d-l {
				terms[i] = a[i]
			} else {
				terms[i] = b[i]
			}
		}
		return workload.NewProduct(terms...)
	}
	with := func(i int, term workload.PredicateSet) workload.Product {
		terms := append([]workload.PredicateSet(nil), a...)
		terms[i] = term
		return workload.NewProduct(terms...)
	}
	weighted := func(p workload.Product, w float64) workload.Product {
		p.Weight = w
		return p
	}

	var shares []workload.Product
	for l := 0; l <= d; l++ {
		shares = append(shares, suffixShare(l))
	}
	cases := []struct {
		name     string
		products []workload.Product
	}{
		{"suffixes of length 0 through d", shares},
		{"differ only in mode 0", []workload.Product{
			with(0, a[0]), with(0, b[0]), with(0, workload.WidthRange(2, 1)), with(0, a[0]),
		}},
		{"structurally equal on distinct instances", []workload.Product{
			workload.NewProduct(a...),
			with(4, workload.Total(7)),
			with(2, workload.Prefix(8)),
			workload.NewProduct(workload.Identity(2), workload.Total(2), workload.Prefix(8), workload.AllRange(5), workload.Total(7)),
		}},
		{"non-comparable predicate set", []workload.Product{
			with(2, opaqueSet{PredicateSet: a[2]}),
			workload.NewProduct(a...),
			with(2, opaqueSet{PredicateSet: a[2]}),
			with(4, opaqueSet{PredicateSet: a[4]}),
			with(4, opaqueSet{PredicateSet: a[4]}),
		}},
		{"weights differ within a group", []workload.Product{
			weighted(workload.NewProduct(a...), 2.5),
			workload.NewProduct(a...),
			weighted(workload.NewProduct(a...), -1.0/3),
			weighted(suffixShare(3), 0.1),
			suffixShare(3),
			weighted(workload.NewProduct(a...), 2.5),
		}},
		{"single product", []workload.Product{weighted(suffixShare(2), 1.7)}},
	}

	x := cphLikeX()
	for _, c := range cases {
		if len(c.products) == 1 {
			ans, err := AnswerProduct(c.products[0], x)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, c.products, x, [][]float64{ans})
		}
		for _, workers := range []int{1, 4, 8} {
			for _, shared := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/shared=%v", c.name, workers, shared), func(t *testing.T) {
					prev := kron.SetWorkers(workers)
					defer kron.SetWorkers(prev)
					got, err := AnswerBatchCtx(t.Context(), c.products, x, workers, shared)
					if err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, c.products, x, got)
				})
			}
		}
	}
}

// TestAnswerBatchContractsSharedSuffixOnce checks the point of the trie: a
// factor instance that ends the sweep of every spec in the batch is
// contracted once, whatever the number of specs, and a factor instance
// shared below differing suffixes is contracted once per suffix.
func TestAnswerBatchContractsSharedSuffixOnce(t *testing.T) {
	age := &countingSet{PredicateSet: workload.Total(7)}
	rel := &countingSet{PredicateSet: workload.Identity(5)}
	sex := workload.Identity(2)
	var ps []workload.Product
	for _, mid := range []workload.PredicateSet{workload.Total(8), workload.Prefix(8), workload.Identity(8)} {
		for _, r := range []workload.PredicateSet{rel, workload.Total(5)} {
			ps = append(ps, workload.NewProduct(sex, workload.Total(2), mid, r, age))
		}
	}
	x := cphLikeX()
	got, err := AnswerBatch(ps, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := age.calls.Load(); n != 1 {
		t.Errorf("shared trailing factor contracted %d times for %d specs, want 1", n, len(ps))
	}
	if n := rel.calls.Load(); n != 1 {
		t.Errorf("factor on a shared suffix contracted %d times, want 1", n)
	}
	requireBitIdentical(t, ps, x, got)
}

// TestAnswerBatchCancellation: a context cancelled before the call, or
// from inside a level, yields the bare cancellation error and no result.
func TestAnswerBatchCancellation(t *testing.T) {
	x := cphLikeX()
	ps := []workload.Product{
		workload.NewProduct(workload.Identity(2), workload.Total(2), workload.Prefix(8), workload.Identity(5), workload.Total(7)),
		workload.NewProduct(workload.Total(2), workload.Identity(2), workload.Prefix(8), workload.Total(5), workload.Total(7)),
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("before/workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(t.Context())
			cancel()
			got, err := AnswerBatchCtx(ctx, ps, x, workers, true)
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("got %d slots, err %v; want no result and context.Canceled", len(got), err)
			}
		})
		t.Run(fmt.Sprintf("inside a level/workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			// Each first-level node cancels while it contracts; every node
			// of the next level must see it.
			mid := append([]workload.Product(nil), ps...)
			for i := range mid {
				terms := append([]workload.PredicateSet(nil), mid[i].Terms...)
				terms[4] = opaqueSet{PredicateSet: terms[4], onMatrix: cancel}
				mid[i] = workload.NewProduct(terms...)
			}
			got, err := AnswerBatchCtx(ctx, mid, x, workers, false)
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("got %d slots, err %v; want no result and context.Canceled", len(got), err)
			}
			if err != context.Canceled {
				t.Fatalf("err = %#v, want the bare context.Canceled", err)
			}
		})
	}
}

// TestAnswerBatchRejectsMisshapenProducts: a product that cannot be
// answered fails the batch with an error naming it; nothing panics.
func TestAnswerBatchRejectsMisshapenProducts(t *testing.T) {
	x := cphLikeX()
	good := workload.NewProduct(workload.Identity(2), workload.Total(2), workload.Prefix(8), workload.Identity(5), workload.Total(7))
	for _, c := range []struct {
		name string
		bad  workload.Product
	}{
		{"wrong domain", workload.NewProduct(workload.Identity(2), workload.Total(2), workload.Prefix(8), workload.Identity(5), workload.Total(6))},
		{"no terms", workload.Product{Weight: 1}},
	} {
		if _, err := AnswerBatch([]workload.Product{good, c.bad}, x, 1); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}
