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
	op.MatVec(ans, x, kron.NewWorkspace())
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
					got, err := NewEstimate(x).AnswerCtx(t.Context(), c.products, workers, shared)
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
			got, err := NewEstimate(x).AnswerCtx(ctx, ps, workers, true)
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
			got, err := NewEstimate(x).AnswerCtx(ctx, mid, workers, false)
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

// TestEstimateKeepsFirstSteps: an Estimate keeps the first-step outputs of
// built-in terms that shrink x, within len(x)/8 values, and answers bit for
// bit like the uncached sweep before and after keeping them. An Explicit
// term is never kept, so a change to its caller-owned matrix shows in the
// next batch, and neither is a term whose type the workload package does
// not define.
func TestEstimateKeepsFirstSteps(t *testing.T) {
	sizes := []int{2, 3, 64}
	x := make([]float64, 2*3*64)
	rng := rand.New(rand.NewPCG(7, 21))
	for i := range x {
		x[i] = rng.NormFloat64() * 100
	}
	bound := len(x) / 8 // 48 values
	explicit := mat.NewDense(2, 64)
	for i := range explicit.Data() {
		explicit.Data()[i] = float64(i % 3)
	}
	i2, t3 := workload.Identity(sizes[0]), workload.Total(sizes[1])
	ps := []workload.Product{
		workload.NewProduct(i2, t3, workload.Total(64)),                             // 6 values: kept
		workload.NewProduct(i2, t3, workload.NewExplicit("E", explicit)),            // Explicit: not kept
		workload.NewProduct(i2, t3, workload.WidthRange(64, 63)),                    // 12: kept
		workload.NewProduct(i2, t3, workload.Prefix(64)),                            // rows = cols: not kept
		workload.NewProduct(i2, t3, workload.WidthRange(64, 60)),                    // 30: kept, 48 in all
		workload.NewProduct(i2, t3, workload.WidthRange(64, 59)),                    // 36: past the bound
		workload.NewProduct(i2, t3, &countingSet{PredicateSet: workload.Total(64)}), // foreign type: not kept
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := NewEstimate(x)
			for pass := range 2 {
				got, err := e.AnswerCtx(t.Context(), ps, workers, pass == 1)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, ps, x, got)
				if held := e.Kept(); held > bound {
					t.Fatalf("pass %d: %d values kept, bound %d", pass, held, bound)
				}
			}
			for key := range e.steps.steps {
				if key[0] == 'E' || key[0] == 'P' || key[0] == 'G' {
					t.Errorf("kept step %q", key)
				}
			}
			if workers == 1 {
				// Nodes run in batch order, so the kept set is fixed.
				want := map[string]int{"T:64": 6, "W:63:64": 12, "W:60:64": 30}
				if len(e.steps.steps) != len(want) || e.Kept() != bound {
					t.Fatalf("kept %d steps, %d values; want %v", len(e.steps.steps), e.Kept(), want)
				}
				for key, n := range want {
					if len(e.steps.steps[key]) != n {
						t.Errorf("step %q keeps %d values, want %d", key, len(e.steps.steps[key]), n)
					}
				}
			}
			explicit.Data()[5]++
			defer func() { explicit.Data()[5]-- }()
			got, err := e.AnswerCtx(t.Context(), ps, workers, false)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, ps, x, got)
		})
	}
}
