package serve_test

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	hdmm "repro"
	"repro/internal/mech"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// stepSizes is a 1,024-cell domain whose last attribute every answer spec
// below contracts first; len(x̂)/8 = 128 values may be kept per engine.
var stepSizes = []int{4, 8, 32}

// stepSpecs mixes first steps an engine keeps (T, W31) with ones it does
// not: I and P do not shrink x̂, and W8's 800 values are past the bound.
var stepSpecs = []string{"I,I,T", "T,I,T", "I,T,W31", "T,T,W8", "I,P,T", "T,T,P", "I,I,I"}

func stepData(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 3))
	x := make([]float64, 4*8*32)
	for i := range x {
		x[i] = float64(rng.IntN(40))
	}
	return x
}

// stepEngine builds an engine over stepSizes on data seeded by dataSeed,
// through reg, so engines sharing reg share one strategy.
func stepEngine(t *testing.T, reg *registry.Registry, dataSeed uint64, workers int) *serve.Engine {
	t.Helper()
	products, err := workload.ParseProducts([]string{"I,T,T", "T,I,T", "T,T,W4"}, stepSizes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(hdmm.NewDomain(
		hdmm.Attribute{Name: "a", Size: stepSizes[0]},
		hdmm.Attribute{Name: "b", Size: stepSizes[1]},
		hdmm.Attribute{Name: "c", Size: stepSizes[2]},
	), products...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngineCtx(t.Context(), w, stepData(dataSeed), 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 1, Seed: 5},
		Seed:      31,
		Workers:   workers,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// oracle answers every product on its own on x, with no engine.
func oracle(t *testing.T, products []workload.Product, x []float64) [][]float64 {
	t.Helper()
	want := make([][]float64, len(products))
	for i, p := range products {
		ans, err := mech.AnswerProduct(p, x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans
	}
	return want
}

func requireSameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: slot %d has %d answers, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: slot %d answer %d = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEnginesSharingAStrategyKeepTheirOwnSteps: two engines with one
// strategy and different data answer the same parsed specs (the same
// predicate-set instances) alternately, through the process-wide pooled
// trie. Every answer must be the engine's own: bit-equal to answering its
// own x̂ with no engine at all.
func TestEnginesSharingAStrategyKeepTheirOwnSteps(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*serve.Engine{stepEngine(t, reg, 1, 2), stepEngine(t, reg, 2, 2)}
	if !engines[1].FromCache() || engines[0].Key() != engines[1].Key() {
		t.Fatal("the second engine did not reuse the first one's strategy")
	}
	products, err := workload.ParseProducts(stepSpecs, stepSizes)
	if err != nil {
		t.Fatal(err)
	}
	want := [][][]float64{oracle(t, products, engines[0].Xhat()), oracle(t, products, engines[1].Xhat())}
	if math.Float64bits(want[0][0][0]) == math.Float64bits(want[1][0][0]) {
		t.Fatal("the two engines' estimates agree; the check needs different data")
	}
	for round := range 50 {
		for i := range engines {
			k := (i + round) % 2 // alternate which engine answers first
			answer := engines[k].AnswerSharedCtx
			if round%3 == 0 {
				answer = engines[k].AnswerCtx
			}
			got, err := answer(t.Context(), products)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "round", got, want[k])
		}
	}
	for k, e := range engines {
		if n := serve.KeptSteps(e); n == 0 || n > len(e.Xhat())/8 {
			t.Errorf("engine %d keeps %d values, want 1..%d", k, n, len(e.Xhat())/8)
		}
	}
}

// TestConcurrentFirstBatch: 16 goroutines send a fresh engine its first
// batch at once, so every one of them may compute and race to keep the
// same steps. Run under -race; every result must be bit-identical to the
// engine-free answer.
func TestConcurrentFirstBatch(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := stepEngine(t, reg, 4, 4)
	products, err := workload.ParseProducts(stepSpecs, stepSizes)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, products, eng.Xhat())
	if n := serve.KeptSteps(eng); n != 0 {
		t.Fatalf("a fresh engine keeps %d values", n)
	}
	const clients = 16
	results := make([][][]float64, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := eng.AnswerCtx(t.Context(), products)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = got
		}()
	}
	close(start)
	wg.Wait()
	for _, got := range results {
		requireSameBits(t, "concurrent first batch", got, want)
	}
	if n := serve.KeptSteps(eng); n == 0 || n > len(eng.Xhat())/8 {
		t.Errorf("engine keeps %d values, want 1..%d", n, len(eng.Xhat())/8)
	}
}

// TestRestoredEngineStartsCold: an engine rebuilt from its snapshot keeps
// no steps, answers byte-identically to the engine that wrote it, and
// then keeps what that engine keeps.
func TestRestoredEngineStartsCold(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := stepEngine(t, reg, 6, 1)
	products, err := workload.ParseProducts(stepSpecs, stepSizes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.AnswerCtx(t.Context(), products)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(eng.Snapshot("tenant", []string{"I,T,T", "T,I,T", "T,T,W4"}))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := serve.Restore(sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := serve.KeptSteps(restored); n != 0 {
		t.Fatalf("a restored engine keeps %d values", n)
	}
	got, err := restored.AnswerCtx(t.Context(), products)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "restored", got, want)
	if a, b := serve.KeptSteps(restored), serve.KeptSteps(eng); a != b || a == 0 {
		t.Fatalf("restored engine keeps %d values after its first batch, the original %d", a, b)
	}
}
