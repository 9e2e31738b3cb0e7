package serve_test

import (
	"math"
	"math/rand/v2"
	"testing"

	hdmm "repro"
	"repro/internal/core"
	"repro/internal/marginals"
	"repro/internal/mat"
	"repro/internal/mech"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workload"
)

// testWorkload returns a small 2-attribute workload with both a Kron-style
// and a marginal-style product, plus a data vector.
func testWorkload(t *testing.T) (*workload.Workload, []float64) {
	t.Helper()
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "sex", Size: 2},
		hdmm.Attribute{Name: "age", Size: 16},
	)
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(16)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.Prefix(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 13))
	x := make([]float64, dom.Size())
	for i := range x {
		x[i] = float64(rng.IntN(50))
	}
	return w, x
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// answerWorkload answers every product of w on the engine through one
// AnswerCtx batch, flattened in workload order.
func answerWorkload(t *testing.T, eng *serve.Engine, w *workload.Workload) ([]float64, error) {
	parts, err := eng.AnswerCtx(t.Context(), w.Products)
	var out []float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, err
}

// spendsOnce runs f and fails the test unless it took exactly one private
// measurement (ε is spent once per run or engine). The counter is
// process-wide, so callers must not run in parallel with other tests.
func spendsOnce(t *testing.T, what string, f func()) {
	t.Helper()
	before := mech.MeasurementsTaken()
	f()
	if d := mech.MeasurementsTaken() - before; d != 1 {
		t.Fatalf("%s took %d measurements, want exactly 1", what, d)
	}
}

// TestEngineMatchesRun: the engine's served answers must be byte-identical
// to a direct hdmm.Run with the same seed and selection options — the
// registry round-trip is observationally invisible — and each of them
// spends ε exactly once.
func TestEngineMatchesRun(t *testing.T) {
	w, x := testWorkload(t)
	sel := hdmm.SelectOptions{Restarts: 2, Seed: 3}
	const eps, seed = 1.0, 99

	var direct *hdmm.Result
	var err error
	spendsOnce(t, "hdmm.Run", func() {
		direct, err = hdmm.Run(w, x, eps, hdmm.Options{Seed: seed, Selection: sel})
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for round := 0; round < 2; round++ { // round 0 computes+stores, round 1 loads from disk
		reg, err := registry.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var eng *serve.Engine
		spendsOnce(t, "serve.NewEngineCtx", func() {
			eng, err = serve.NewEngineCtx(t.Context(), w, x, eps, serve.Options{Selection: sel, Seed: seed, Registry: reg})
		})
		if err != nil {
			t.Fatal(err)
		}
		if wantCache := round == 1; eng.FromCache() != wantCache {
			t.Fatalf("round %d: FromCache = %v, want %v", round, eng.FromCache(), wantCache)
		}
		if !sameFloats(eng.Xhat(), direct.Xhat) {
			t.Fatalf("round %d: engine x̂ differs from direct run", round)
		}
		got, err := answerWorkload(t, eng, w)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, direct.Answers) {
			t.Fatalf("round %d: served answers differ from direct run", round)
		}
		if eng.ExpectedRMSE() != direct.ExpectedRMSE {
			t.Fatalf("round %d: RMSE %v, want %v", round, eng.ExpectedRMSE(), direct.ExpectedRMSE)
		}
	}
}

// TestEngineMatchesRunGaussian: same invariants for the (ε,δ) Gaussian path.
func TestEngineMatchesRunGaussian(t *testing.T) {
	w, x := testWorkload(t)
	sel := hdmm.SelectOptions{Restarts: 2, Seed: 3}
	const eps, delta, seed = 0.5, 1e-6, 42

	var direct *hdmm.Result
	var err error
	spendsOnce(t, "hdmm.RunGaussian", func() {
		direct, err = hdmm.RunGaussian(w, x, eps, delta, hdmm.Options{Seed: seed, Selection: sel})
	})
	if err != nil {
		t.Fatal(err)
	}
	var eng *serve.Engine
	spendsOnce(t, "serve.NewEngineCtx", func() {
		eng, err = serve.NewEngineCtx(t.Context(), w, x, eps, serve.Options{Selection: sel, Delta: delta, Seed: seed})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := answerWorkload(t, eng, w)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got, direct.Answers) {
		t.Fatal("Gaussian served answers differ from direct RunGaussian")
	}
	if eng.ExpectedRMSE() != direct.ExpectedRMSE {
		t.Fatalf("Gaussian RMSE %v, want %v", eng.ExpectedRMSE(), direct.ExpectedRMSE)
	}
}

// TestEngineCacheSkipsOptimization: constructing a second engine over the
// same registry performs zero optimizer restarts — the whole point of the
// registry.
func TestEngineCacheSkipsOptimization(t *testing.T) {
	w, x := testWorkload(t)
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := hdmm.SelectOptions{Restarts: 2, Seed: 3}

	eng1, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Seed: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if eng1.FromCache() {
		t.Fatal("first engine claims a cache hit on an empty registry")
	}

	before := core.RestartsPerformed()
	eng2, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Seed: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !eng2.FromCache() {
		t.Fatal("second engine did not load from the registry")
	}
	if d := core.RestartsPerformed() - before; d != 0 {
		t.Fatalf("second engine performed %d optimizer restarts, want 0", d)
	}
	if eng1.Key() != eng2.Key() {
		t.Fatalf("engines over the same (workload, options) disagree on key: %s vs %s", eng1.Key(), eng2.Key())
	}
}

// TestAnswerDeterministicAcrossWorkers: one batch answered at Workers 1, 4
// and 8 must be byte-identical — answering is indexed fan-out with no
// cross-slot state.
func TestAnswerDeterministicAcrossWorkers(t *testing.T) {
	w, x := testWorkload(t)
	batch := []workload.Product{
		hdmm.NewProduct(hdmm.Identity(2), hdmm.Identity(16)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.AllRange(16)),
		hdmm.NewProduct(hdmm.Identity(2), hdmm.WidthRange(16, 4)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.Total(16)),
		hdmm.NewProduct(hdmm.Identity(2), hdmm.Prefix(16)),
	}
	var want [][]float64
	for _, workers := range []int{1, 4, 8} {
		eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
			Selection: hdmm.SelectOptions{Restarts: 2, Seed: 3, Workers: workers},
			Seed:      7,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.AnswerCtx(t.Context(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !sameFloats(got[i], want[i]) {
				t.Fatalf("Workers=%d: batch item %d differs from Workers=1", workers, i)
			}
		}
	}
}

// TestEngineRejectsMismatchedCacheEntry: a registry entry whose strategy
// covers a different domain (a renamed or stale .strat file) must fail
// engine construction with an error, not panic inside the measurement.
func TestEngineRejectsMismatchedCacheEntry(t *testing.T) {
	w, x := testWorkload(t)
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 4}
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a strategy for the wrong domain size under the right key.
	key := registry.Key(w, sel)
	if err := reg.Put(key, &registry.Record{
		Strategy: &core.IdentityStrategy{N: w.Domain.Size() + 1},
		Err:      1,
		Operator: "Identity",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Registry: reg}); err == nil {
		t.Fatal("engine accepted a cached strategy for a different domain")
	}
}

// TestEngineRejectsWrongFactorization: a cached Kron strategy over a
// different factorization of the same total domain size ([16,2] vs [2,16])
// must be rejected — a column-count check alone would let it reconstruct
// silently wrong answers.
func TestEngineRejectsWrongFactorization(t *testing.T) {
	w, x := testWorkload(t) // domain [2, 16], 32 cells
	swapped, err := hdmm.NewWorkload(
		hdmm.NewDomain(hdmm.Attribute{Name: "age", Size: 16}, hdmm.Attribute{Name: "sex", Size: 2}),
		hdmm.NewProduct(hdmm.AllRange(16), hdmm.Identity(2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	selSwapped, err := core.Select(swapped, hdmm.SelectOptions{Restarts: 1, SkipMarg: true, SkipPlus: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := selSwapped.Strategy.(*core.KronStrategy); !ok {
		t.Skipf("expected a Kron strategy for the swapped domain, got %T", selSwapped.Strategy)
	}
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 4}
	if err := reg.Put(registry.Key(w, sel), selSwapped); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Registry: reg}); err == nil {
		t.Fatal("engine accepted a strategy factorized as [16,2] for a [2,16] domain")
	}
}

// TestEngineRejectsForeignStrategyShapes covers the per-kind shape guard:
// marginal lattices over a different factorization of the same domain
// size, union parts with wrong factors, and union groups referencing
// products the workload does not have must all fail construction.
func TestEngineRejectsForeignStrategyShapes(t *testing.T) {
	w, x := testWorkload(t) // domain [2, 16], 32 cells, 2 products
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 4}

	theta := mat.NewDense(1, 16)
	for j := 0; j < 16; j++ {
		theta.Set(0, j, 0.1)
	}
	okKron := core.NewKronStrategy(
		core.NewPIdentity(mat.NewDense(1, 2)),
		core.NewPIdentity(theta.Clone()),
	)
	wrongKron := core.NewKronStrategy(
		core.NewPIdentity(mat.NewDense(1, 4)),
		core.NewPIdentity(mat.NewDense(1, 8)),
	)
	margSpace := marginals.NewSpace([]int{4, 8}) // 32 cells, wrong split
	margTheta := make([]float64, margSpace.NumSubsets())
	for i := range margTheta {
		margTheta[i] = 1
	}

	cases := map[string]core.Strategy{
		"marginal lattice over [4,8] for a [2,16] domain": core.NewMarginalStrategy(margSpace, margTheta),
		"union part factorized [4,8]": &core.UnionStrategy{
			Parts:  []*core.KronStrategy{okKron, wrongKron},
			Shares: []float64{0.5, 0.5},
			Groups: [][]int{{0}, {1}},
		},
		"union group referencing product 99": &core.UnionStrategy{
			Parts:  []*core.KronStrategy{okKron, okKron},
			Shares: []float64{0.5, 0.5},
			Groups: [][]int{{0}, {1, 99}},
		},
	}
	for name, strat := range cases {
		reg, err := registry.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Put(registry.Key(w, sel), &registry.Record{Strategy: strat, Err: 1, Operator: "?"}); err != nil {
			t.Fatal(err)
		}
		if _, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Registry: reg}); err == nil {
			t.Errorf("engine accepted %s", name)
		}
	}
}

// TestEngineValidation: invalid construction and malformed batch items are
// rejected with errors.
func TestEngineValidation(t *testing.T) {
	w, x := testWorkload(t)
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 0, serve.Options{}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 1, serve.Options{Delta: 1}); err == nil {
		t.Error("delta=1 accepted")
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 1.5, serve.Options{Delta: 1e-6}); err == nil {
		t.Error("eps>1 Gaussian accepted (classic calibration is unsound above 1)")
	}
	// NaN compares false with everything; Inf means zero noise. Both must
	// be rejected, not silently measured with.
	if _, err := serve.NewEngineCtx(t.Context(), w, x, math.NaN(), serve.Options{}); err == nil {
		t.Error("eps=NaN accepted")
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, math.Inf(1), serve.Options{}); err == nil {
		t.Error("eps=+Inf accepted")
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 1, serve.Options{Delta: math.NaN()}); err == nil {
		t.Error("delta=NaN accepted")
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x, 1.5, serve.Options{Selection: hdmm.SelectOptions{Restarts: 1}, Seed: 3}); err != nil {
		t.Errorf("eps>1 Laplace rejected: %v", err)
	}
	if _, err := serve.NewEngineCtx(t.Context(), w, x[:3], 1, serve.Options{}); err == nil {
		t.Error("short data vector accepted")
	}

	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: hdmm.SelectOptions{Restarts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AnswerCtx(t.Context(), []workload.Product{hdmm.NewProduct(hdmm.Identity(2))}); err == nil {
		t.Error("wrong-arity product accepted")
	}
	if _, err := eng.AnswerCtx(t.Context(), []workload.Product{hdmm.NewProduct(hdmm.Identity(3), hdmm.Identity(16))}); err == nil {
		t.Error("wrong-size product accepted")
	}
}
