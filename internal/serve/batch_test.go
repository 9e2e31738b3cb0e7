package serve_test

import (
	"fmt"
	"math"
	"testing"

	hdmm "repro"
	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/workload"
)

// batchEngine builds a deterministic engine over [2,16] for batch tests.
func batchEngine(t testing.TB) *serve.Engine {
	t.Helper()
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "sex", Size: 2},
		hdmm.Attribute{Name: "age", Size: 16},
	)
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, dom.Size())
	for i := range x {
		x[i] = float64((i * 13) % 29)
	}
	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 1, Seed: 7},
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// batchProducts builds a serving batch with heavy factor-set sharing: many
// repeats of a few specs (sharing predicate-set instances, as the spec
// parser produces), including same-factor-set products at different
// weights and one product with private instances that must not group.
func batchProducts() []workload.Product {
	i2, r16 := hdmm.Identity(2), hdmm.AllRange(16)
	t2, p16 := hdmm.Total(2), hdmm.Prefix(16)
	var ps []workload.Product
	for k := 0; k < 20; k++ {
		ps = append(ps, workload.NewProduct(i2, r16))
		ps = append(ps, workload.NewProduct(t2, p16))
	}
	ps = append(ps, workload.Product{Weight: 2.5, Terms: []workload.PredicateSet{i2, r16}})
	// Structurally equal to the first spec but distinct instances: must be
	// answered correctly (its own evaluation, no instance grouping).
	ps = append(ps, workload.NewProduct(hdmm.Identity(2), hdmm.AllRange(16)))
	return ps
}

// TestAnswerBatchMatchesPerProduct pins the batch evaluator to the
// one-product-at-a-time Kronecker sweep byte-for-byte at several worker counts,
// across duplicate factor sets, weight variations, and ungroupable
// instances.
func TestAnswerBatchMatchesPerProduct(t *testing.T) {
	eng := batchEngine(t)
	ps := batchProducts()

	// The oracle is the per-product Kronecker sweep, scaled by the weight
	// the way the batch path scales it: it shares no code with the batch
	// evaluator beyond the mode step itself.
	want := make([][]float64, len(ps))
	for i, p := range ps {
		ms := make([]*mat.Dense, len(p.Terms))
		for a, term := range p.Terms {
			ms[a] = term.Matrix()
		}
		op := kron.NewProduct(ms...)
		rows, _ := op.Dims()
		want[i] = make([]float64, rows)
		op.MatVec(want[i], eng.Xhat(), kron.NewWorkspace())
		if p.Weight != 1 {
			for j := range want[i] {
				want[i][j] *= p.Weight
			}
		}
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := kron.SetWorkers(workers)
			defer kron.SetWorkers(prev)
			for _, shared := range []bool{false, true} {
				var got [][]float64
				var err error
				if shared {
					got, err = eng.AnswerSharedCtx(t.Context(), ps)
				} else {
					got, err = eng.AnswerCtx(t.Context(), ps)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("shared=%v product %d: %d answers, want %d", shared, i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("shared=%v product %d answer %d: %v, want %v", shared, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		})
	}
}

// TestAnswerSharedAliasing verifies the aliasing contract: AnswerSharedCtx
// returns one slice for exact duplicates (same instances, same weight) but
// must still copy when weights differ; AnswerCtx never aliases.
func TestAnswerSharedAliasing(t *testing.T) {
	eng := batchEngine(t)
	i2, r16 := hdmm.Identity(2), hdmm.AllRange(16)
	ps := []workload.Product{
		workload.NewProduct(i2, r16),
		workload.NewProduct(i2, r16),
		{Weight: 3, Terms: []workload.PredicateSet{i2, r16}},
	}

	shared, err := eng.AnswerSharedCtx(t.Context(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if &shared[0][0] != &shared[1][0] {
		t.Error("AnswerSharedCtx: exact duplicates should alias one slice")
	}
	if &shared[0][0] == &shared[2][0] {
		t.Error("AnswerSharedCtx: different weights must not alias")
	}

	copied, err := eng.AnswerCtx(t.Context(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if &copied[0][0] == &copied[1][0] {
		t.Error("AnswerCtx: slots must not share backing arrays")
	}
}

// TestAnswerAllocsScaleWithDistinctFactorSets is the serving-side
// allocation regression test: a batch of duplicated specs must cost a
// handful of contractions plus (at most) one copy per product — not a full
// Kronecker evaluation per product as before the batching rewrite.
func TestAnswerAllocsScaleWithDistinctFactorSets(t *testing.T) {
	prev := kron.SetWorkers(1)
	defer kron.SetWorkers(prev)

	eng := batchEngine(t)
	i2, r16 := hdmm.Identity(2), hdmm.AllRange(16)
	const dup = 256
	ps := make([]workload.Product, dup)
	for i := range ps {
		ps[i] = workload.NewProduct(i2, r16)
	}
	if _, err := eng.AnswerSharedCtx(t.Context(), ps); err != nil { // warm Matrix() caches
		t.Fatal(err)
	}

	sharedAllocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.AnswerSharedCtx(t.Context(), ps); err != nil {
			t.Fatal(err)
		}
	})
	// One contraction plus per-batch bookkeeping — far below one alloc per
	// product, let alone the ~8 per product of unbatched evaluation.
	if sharedAllocs > 64 {
		t.Errorf("AnswerSharedCtx of %d duplicate products: %v allocs, want O(distinct specs) ≪ %d", dup, sharedAllocs, dup)
	}

	copyAllocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.AnswerCtx(t.Context(), ps); err != nil {
			t.Fatal(err)
		}
	})
	if copyAllocs > dup+64 {
		t.Errorf("AnswerCtx of %d duplicate products: %v allocs, want ≤ one copy per product plus bookkeeping", dup, copyAllocs)
	}
}
