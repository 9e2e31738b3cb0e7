package hdmm_test

import (
	"math"
	"testing"

	hdmm "repro"
	"repro/internal/core"
)

// TestOptimizeInProcessReuse: two Optimize calls with the same workload and
// options share the process-wide in-memory registry even with no CacheDir —
// the second is a cache hit.
func TestOptimizeInProcessReuse(t *testing.T) {
	w, err := hdmm.NewWorkload(
		hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 2}, hdmm.Attribute{Name: "b", Size: 12}),
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(12)),
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := hdmm.SelectOptions{Restarts: 1, Seed: 77}

	key1, sel1, _, err := hdmm.Optimize(w, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	key2, sel2, fromCache, err := hdmm.Optimize(w, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Error("second Optimize call did not hit the in-process registry")
	}
	if key1 != key2 || sel1.Err != sel2.Err || sel1.Operator != sel2.Operator {
		t.Errorf("repeat Optimize disagreed: (%s, %v, %s) vs (%s, %v, %s)",
			key1, sel1.Err, sel1.Operator, key2, sel2.Err, sel2.Operator)
	}
}

// TestEngineReusesOptimize: an engine constructed after Optimize with the
// same options loads the strategy instead of re-selecting.
func TestEngineReusesOptimize(t *testing.T) {
	w, err := hdmm.NewWorkload(
		hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 2}, hdmm.Attribute{Name: "b", Size: 14}),
		hdmm.NewProduct(hdmm.Identity(2), hdmm.Prefix(14)),
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := hdmm.SelectOptions{Restarts: 1, Seed: 78}
	key, _, _, err := hdmm.Optimize(w, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, w.Domain.Size())
	eng, err := hdmm.NewEngine(w, x, 1.0, hdmm.EngineOptions{Selection: opts, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.FromCache() {
		t.Error("engine re-optimized a strategy Optimize had already cached")
	}
	if eng.Key() != key {
		t.Errorf("engine key %s, Optimize key %s", eng.Key(), key)
	}
}

// TestRunReusesOptimizedStrategy: Run resolves its strategy through the
// same process-wide registry as Optimize and NewEngine, so a Run after
// Optimize with equal options performs no optimizer restarts, and its
// answers are byte-identical to an engine's answers for the same seed.
func TestRunReusesOptimizedStrategy(t *testing.T) {
	w, err := hdmm.NewWorkload(
		hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 3}, hdmm.Attribute{Name: "b", Size: 10}),
		hdmm.NewProduct(hdmm.Identity(3), hdmm.AllRange(10)),
		hdmm.NewProduct(hdmm.Total(3), hdmm.Prefix(10)),
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := hdmm.SelectOptions{Restarts: 1, Seed: 79}
	if _, _, _, err := hdmm.Optimize(w, "", opts); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, w.Domain.Size())
	for i := range x {
		x[i] = float64(i % 5)
	}

	before := core.RestartsPerformed()
	res, err := hdmm.Run(w, x, 1.0, hdmm.Options{Selection: opts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := core.RestartsPerformed() - before; d != 0 {
		t.Fatalf("Run after Optimize performed %d optimizer restarts, want 0", d)
	}

	eng, err := hdmm.NewEngine(w, x, 1.0, hdmm.EngineOptions{Selection: opts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := eng.AnswerCtx(t.Context(), w.Products)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, p := range parts {
		want = append(want, p...)
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("Run returned %d answers, engine %d", len(res.Answers), len(want))
	}
	for i := range want {
		if math.Float64bits(res.Answers[i]) != math.Float64bits(want[i]) {
			t.Fatalf("answer %d: Run %v, engine %v", i, res.Answers[i], want[i])
		}
	}
}

// TestFingerprintPermutedCustomSet: hdmm.Permute over a predicate set that
// does not implement the canonicalization fast path must fingerprint via
// the Gram fallback, not panic.
func TestFingerprintPermutedCustomSet(t *testing.T) {
	base := opaqueSet{hdmm.AllRange(8)}
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	w, err := hdmm.NewWorkload(
		hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 8}),
		hdmm.NewProduct(hdmm.Permute(base, perm)),
	)
	if err != nil {
		t.Fatal(err)
	}
	fp := hdmm.Fingerprint(w) // must not panic
	if len(fp) != 64 {
		t.Fatalf("bad fingerprint %q", fp)
	}
	w2, err := hdmm.NewWorkload(
		hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 8}),
		hdmm.NewProduct(hdmm.Permute(base, []int{0, 1, 2, 3, 4, 5, 6, 7})),
	)
	if err != nil {
		t.Fatal(err)
	}
	if hdmm.Fingerprint(w2) == fp {
		t.Error("different permutations of a custom set fingerprint equal")
	}
}

// opaqueSet simulates a user-defined predicate set: embedding the
// PredicateSet interface promotes only its methods, so the wrapped value's
// Canonical (not part of the interface) is hidden and the fingerprint must
// take the Gram-hash fallback.
type opaqueSet struct{ hdmm.PredicateSet }
