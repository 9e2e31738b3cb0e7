package registry

import (
	"math/rand/v2"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/schema"
	"repro/internal/workload"
)

// randPredicate draws a random predicate set over a domain of size n.
func randPredicate(rng *rand.Rand, n int) workload.PredicateSet {
	switch rng.IntN(6) {
	case 0:
		return workload.Identity(n)
	case 1:
		return workload.Total(n)
	case 2:
		return workload.Prefix(n)
	case 3:
		return workload.AllRange(n)
	case 4:
		return workload.WidthRange(n, 1+rng.IntN(n))
	default:
		m := mat.NewDense(1+rng.IntN(3), n)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					m.Set(i, j, 1)
				}
			}
		}
		return workload.NewExplicit("rand", m)
	}
}

// randWorkload draws a random workload: 1–4 attributes of size 2–9, 1–6
// weighted products of random predicate sets.
func randWorkload(rng *rand.Rand) *workload.Workload {
	d := 1 + rng.IntN(4)
	sizes := make([]int, d)
	for i := range sizes {
		sizes[i] = 2 + rng.IntN(8)
	}
	dom := schema.Sizes(sizes...)
	numProducts := 1 + rng.IntN(6)
	products := make([]workload.Product, numProducts)
	for p := range products {
		terms := make([]workload.PredicateSet, d)
		for i := range terms {
			terms[i] = randPredicate(rng, sizes[i])
		}
		products[p] = workload.Product{Weight: 0.25 * float64(1+rng.IntN(8)), Terms: terms}
	}
	return workload.MustNew(dom, products...)
}

// shuffled returns the same workload with its products in a new order.
func shuffled(rng *rand.Rand, w *workload.Workload) *workload.Workload {
	products := append([]workload.Product(nil), w.Products...)
	rng.Shuffle(len(products), func(i, j int) { products[i], products[j] = products[j], products[i] })
	return workload.MustNew(w.Domain, products...)
}

// TestFingerprintOrderInvariant: a workload is a set of query groups, so
// any permutation of the products must fingerprint identically.
func TestFingerprintOrderInvariant(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xf1))
		w := randWorkload(rng)
		want := Fingerprint(w)
		for k := 0; k < 3; k++ {
			if got := Fingerprint(shuffled(rng, w)); got != want {
				t.Fatalf("trial %d: fingerprint changed under product reorder", trial)
			}
		}
	}
}

// TestFingerprintShapeSensitive: changing any structural parameter —
// domain size, predicate kind or parameter, product weight, or the product
// multiset — must change the fingerprint.
func TestFingerprintShapeSensitive(t *testing.T) {
	dom := schema.Sizes(2, 16)
	base := workload.MustNew(dom,
		workload.NewProduct(workload.Identity(2), workload.AllRange(16)),
		workload.NewProduct(workload.Total(2), workload.Prefix(16)),
	)
	fp := Fingerprint(base)

	variants := map[string]*workload.Workload{
		"different domain size": workload.MustNew(schema.Sizes(2, 17),
			workload.NewProduct(workload.Identity(2), workload.AllRange(17)),
			workload.NewProduct(workload.Total(2), workload.Prefix(17)),
		),
		"different predicate kind": workload.MustNew(dom,
			workload.NewProduct(workload.Identity(2), workload.AllRange(16)),
			workload.NewProduct(workload.Total(2), workload.AllRange(16)),
		),
		"different width parameter": workload.MustNew(dom,
			workload.NewProduct(workload.Identity(2), workload.WidthRange(16, 4)),
			workload.NewProduct(workload.Total(2), workload.Prefix(16)),
		),
		"different weight": workload.MustNew(dom,
			workload.Product{Weight: 2, Terms: []workload.PredicateSet{workload.Identity(2), workload.AllRange(16)}},
			workload.NewProduct(workload.Total(2), workload.Prefix(16)),
		),
		"dropped product": workload.MustNew(dom,
			workload.NewProduct(workload.Identity(2), workload.AllRange(16)),
		),
		"duplicated product": workload.MustNew(dom,
			workload.NewProduct(workload.Identity(2), workload.AllRange(16)),
			workload.NewProduct(workload.Identity(2), workload.AllRange(16)),
			workload.NewProduct(workload.Total(2), workload.Prefix(16)),
		),
	}
	for name, v := range variants {
		if Fingerprint(v) == fp {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
}

// TestFingerprintPermutationSensitive: permuting a predicate set's domain
// changes the queries, so it must change the fingerprint — but two equal
// permutations must agree.
func TestFingerprintPermutationSensitive(t *testing.T) {
	n := 12
	base := workload.Single(workload.AllRange(n))
	permA := workload.Single(workload.Permute(workload.AllRange(n), workload.RandPerm(n, 1)))
	permA2 := workload.Single(workload.Permute(workload.AllRange(n), workload.RandPerm(n, 1)))
	permB := workload.Single(workload.Permute(workload.AllRange(n), workload.RandPerm(n, 2)))

	if Fingerprint(base) == Fingerprint(permA) {
		t.Error("permuted workload fingerprints equal to unpermuted")
	}
	if Fingerprint(permA) != Fingerprint(permA2) {
		t.Error("identical permutations fingerprint differently")
	}
	if Fingerprint(permA) == Fingerprint(permB) {
		t.Error("different permutations fingerprint equal")
	}
}

// TestFingerprintExplicitContent: Explicit sets are fingerprinted by matrix
// content, not by their display name.
func TestFingerprintExplicitContent(t *testing.T) {
	m1 := mat.FromRows([][]float64{{1, 0, 1}, {0, 1, 0}})
	m2 := mat.FromRows([][]float64{{1, 0, 1}, {0, 1, 0}})
	m3 := mat.FromRows([][]float64{{1, 0, 1}, {0, 1, 1}})

	wa := workload.Single(workload.NewExplicit("a", m1))
	wb := workload.Single(workload.NewExplicit("b", m2))
	wc := workload.Single(workload.NewExplicit("a", m3))

	if Fingerprint(wa) != Fingerprint(wb) {
		t.Error("same matrix, different names: fingerprints differ")
	}
	if Fingerprint(wa) == Fingerprint(wc) {
		t.Error("different matrices, same name: fingerprints equal")
	}
}

// gramOnly hides the Canonicalizer implementation of a predicate set,
// simulating a custom set defined outside the workload package.
type gramOnly struct{ workload.PredicateSet }

// TestFingerprintFallback: predicate sets without Canonical() are
// fingerprinted through their Gram matrix; structurally equal sets agree
// and different ones differ.
func TestFingerprintFallback(t *testing.T) {
	wa := workload.Single(gramOnly{workload.AllRange(8)})
	wb := workload.Single(gramOnly{workload.AllRange(8)})
	wc := workload.Single(gramOnly{workload.Prefix(8)})
	if Fingerprint(wa) != Fingerprint(wb) {
		t.Error("equal fallback sets fingerprint differently")
	}
	if Fingerprint(wa) == Fingerprint(wc) {
		t.Error("different fallback sets fingerprint equal")
	}
}

// TestFingerprintHex: the hex form is 64 chars of the same digest.
func TestFingerprintHex(t *testing.T) {
	w := workload.Single(workload.AllRange(8))
	hex := FingerprintHex(w)
	if len(hex) != 64 {
		t.Fatalf("hex fingerprint has length %d, want 64", len(hex))
	}
	if hex != FingerprintHex(workload.Single(workload.AllRange(8))) {
		t.Fatal("hex fingerprint not stable")
	}
}

// TestKeyIgnoresNonResultOptions: Workers cannot change the selected
// strategy, so they must not change the cache key; options
// that do change the result must.
func TestKeyIgnoresNonResultOptions(t *testing.T) {
	w := workload.Single(workload.AllRange(8))
	base := Key(w, core.HDMMOptions{Restarts: 3, Seed: 5})

	same := []core.HDMMOptions{
		{Restarts: 3, Seed: 5, Workers: 8},
	}
	for i, o := range same {
		if Key(w, o) != base {
			t.Errorf("option set %d changed the key but cannot change the result", i)
		}
	}

	diff := []core.HDMMOptions{
		{Restarts: 4, Seed: 5},
		{Restarts: 3, Seed: 6},
		{Restarts: 3, Seed: 5, SkipMarg: true},
		{Restarts: 3, Seed: 5, Kron: core.OPTKronOptions{MaxIter: 10}},
	}
	for i, o := range diff {
		if Key(w, o) == base {
			t.Errorf("option set %d did not change the key but changes the result", i)
		}
	}

	// Defaults are normalized: explicit defaults and zero values collide,
	// including the sub-optimizer scalar defaults.
	if Key(w, core.HDMMOptions{}) != Key(w, core.HDMMOptions{Restarts: 5, MaxMargDims: 14}) {
		t.Error("zero options and explicit defaults produced different keys")
	}
	explicit := core.HDMMOptions{
		Kron: core.OPTKronOptions{Restarts: 1, MaxIter: 150, Cycles: 6, Tol: 1e-4},
		Marg: core.OPTMargOptions{Restarts: 1, MaxIter: 200},
	}
	if Key(w, core.HDMMOptions{}) != Key(w, explicit) {
		t.Error("explicit sub-optimizer defaults produced a different key than zero values")
	}
}

// TestKeyReferenceGolden pins the strategy key of the CPH workload, the
// workload every end-to-end benchmark tenant registers, to the hex every
// earlier release computed. A changed key would orphan every strategy
// already cached under it.
func TestKeyReferenceGolden(t *testing.T) {
	w, err := census.CPHMarginalWorkload()
	if err != nil {
		t.Fatal(err)
	}
	const want = "2d6811994f322317009c285126c6dce6a997108944f4dc87f1ffa47de07f7a86"
	if got := Key(w, core.HDMMOptions{Restarts: 2, Seed: 21}); got != want {
		t.Fatalf("Key(CPH, Restarts 2, Seed 21) = %s, golden %s", got, want)
	}
}
