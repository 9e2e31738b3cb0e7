package workload

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/schema"
)

// gramMatchesMatrix checks the closed-form Gram against the explicit matrix.
func gramMatchesMatrix(t *testing.T, ps PredicateSet) {
	t.Helper()
	want := mat.Gram(nil, ps.Matrix())
	if !mat.Equalish(ps.Gram(), want, 1e-10) {
		t.Fatalf("%s: Gram disagrees with explicit (maxdiff %g)", ps.Name(), mat.MaxAbsDiff(ps.Gram(), want))
	}
}

func TestGramsAgainstExplicit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		gramMatchesMatrix(t, Identity(n))
		gramMatchesMatrix(t, Total(n))
		gramMatchesMatrix(t, Prefix(n))
		gramMatchesMatrix(t, AllRange(n))
		for _, w := range []int{1, 2, n/2 + 1, n} {
			if w >= 1 && w <= n {
				gramMatchesMatrix(t, WidthRange(n, w))
			}
		}
		perm := RandPerm(n, 42)
		gramMatchesMatrix(t, Permute(AllRange(n), perm))
		gramMatchesMatrix(t, Permute(Prefix(n), perm))
	}
}

func TestColCountsAgainstExplicit(t *testing.T) {
	sets := []PredicateSet{
		Identity(9), Total(9), Prefix(9), AllRange(9), WidthRange(9, 3),
		Permute(AllRange(9), RandPerm(9, 7)),
	}
	for _, ps := range sets {
		want := mat.ColAbsSums(ps.Matrix())
		got := ps.ColCounts()
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-10 {
				t.Fatalf("%s: ColCounts[%d] = %v want %v", ps.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestRowCounts(t *testing.T) {
	if AllRange(10).Rows() != 55 {
		t.Fatal("AllRange rows")
	}
	if WidthRange(10, 3).Rows() != 8 {
		t.Fatal("WidthRange rows")
	}
	if Prefix(10).Rows() != 10 || Total(10).Rows() != 1 || Identity(10).Rows() != 10 {
		t.Fatal("basic rows")
	}
}

func TestProductAndWorkloadSizes(t *testing.T) {
	dom := schema.Sizes(2, 2, 64, 17, 115)
	// One SF1-like query: a conjunction is a product of 1-row predicate sets.
	oneRow := func(n int) PredicateSet {
		m := mat.NewDense(1, n)
		m.Set(0, 0, 1)
		return NewExplicit("φ", m)
	}
	p := NewProduct(oneRow(2), oneRow(2), oneRow(64), oneRow(17), oneRow(115))
	if p.Rows() != 1 {
		t.Fatal("single-query product should have 1 row")
	}
	// Example 6: implicit size of one query = 2+2+64+17+115 = 200.
	if p.ImplicitSize() != 200 {
		t.Fatalf("ImplicitSize = %d want 200", p.ImplicitSize())
	}
	w := MustNew(dom, p)
	if w.Domain.Size() != 500480 {
		t.Fatalf("CPH domain size = %d want 500480", w.Domain.Size())
	}
	if w.ExplicitSize() != 500480 {
		t.Fatal("explicit size of one query should be N")
	}
}

func TestWorkloadValidation(t *testing.T) {
	dom := schema.Sizes(3, 4)
	if _, err := New(dom, NewProduct(Identity(3))); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := New(dom, NewProduct(Identity(3), Identity(5))); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := New(dom, Product{Weight: 0, Terms: []PredicateSet{Identity(3), Identity(4)}}); err == nil {
		t.Fatal("expected weight error")
	}
}

func TestExplicitMatrixAndKron(t *testing.T) {
	// vec(Φ×Ψ) = vec(Φ)⊗vec(Ψ) (Theorem 2): check workload matrix equals
	// explicit Kronecker product.
	a, b := Prefix(3), Identity(2)
	w := Product2D(a, b)
	got := w.ExplicitMatrix()
	want := Kron2(a.Matrix(), b.Matrix())
	if !mat.Equalish(got, want, 0) {
		t.Fatal("product workload explicit matrix != Kronecker product")
	}
}

func TestColCountsAndSensitivity(t *testing.T) {
	// 2-attribute union: [P×I; I×P].
	w := Union2D([2]PredicateSet{Prefix(3), Identity(2)}, [2]PredicateSet{Identity(3), Prefix(2)})
	got := w.ColCounts()
	want := mat.ColAbsSums(w.ExplicitMatrix())
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("ColCounts[%d] = %v want %v", i, got[i], want[i])
		}
	}
	if math.Abs(w.Sensitivity()-mat.L1Norm(w.ExplicitMatrix())) > 1e-10 {
		t.Fatal("Sensitivity != L1 norm of explicit matrix")
	}
}

func TestGramTraceMatchesExplicit(t *testing.T) {
	w := Union2D([2]PredicateSet{AllRange(4), Total(3)}, [2]PredicateSet{Total(4), AllRange(3)})
	w.Products[1].Weight = 2.5
	got := w.GramTrace()
	ex := w.ExplicitMatrix()
	want := mat.Trace(mat.Gram(nil, ex))
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("GramTrace = %v want %v", got, want)
	}
}

func TestMarginalBuilders(t *testing.T) {
	dom := schema.Sizes(2, 3, 4)
	all := AllMarginals(dom)
	if len(all.Products) != 8 {
		t.Fatalf("AllMarginals products = %d", len(all.Products))
	}
	// Total queries in all marginals = ∏(ni+1) expanded... directly:
	// Σ over subsets of ∏_{i∈S} ni = ∏(ni+1) = 3*4*5 = 60.
	if all.NumQueries() != 60 {
		t.Fatalf("AllMarginals queries = %d want 60", all.NumQueries())
	}
	two := KWayMarginals(dom, 2)
	if len(two.Products) != 3 {
		t.Fatalf("2-way marginals products = %d", len(two.Products))
	}
	if two.NumQueries() != 2*3+2*4+3*4 {
		t.Fatalf("2-way queries = %d", two.NumQueries())
	}
	upto := UpToKWayMarginals(dom, 1)
	if len(upto.Products) != 4 { // empty set + 3 singletons
		t.Fatalf("up-to-1-way products = %d", len(upto.Products))
	}
}

func TestRangeMarginals(t *testing.T) {
	dom := schema.Sizes(5, 3)
	w := AllRangeMarginals(dom, map[int]bool{0: true})
	// Subset {0}: AllRange(5)×Total(3) → 15 queries.
	found := false
	for _, p := range w.Products {
		if p.Rows() == 15 {
			found = true
		}
	}
	if !found {
		t.Fatal("range marginal product missing")
	}
}

func TestMarginalSensitivityIsOne(t *testing.T) {
	// Each marginal partitions the domain: sensitivity of a single marginal
	// product is exactly 1.
	dom := schema.Sizes(3, 4, 2)
	for s := uint(0); s < 8; s++ {
		w := MustNew(dom, Marginal(dom, s))
		if math.Abs(w.Sensitivity()-1) > 1e-12 {
			t.Fatalf("marginal %b sensitivity = %v", s, w.Sensitivity())
		}
	}
}

// Property: Theorem 3 — sensitivity of a product equals the product of
// per-term sensitivities (max column sums).
func TestQuickProductSensitivity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		mk := func() PredicateSet {
			n := 2 + rng.IntN(4)
			switch rng.IntN(4) {
			case 0:
				return Identity(n)
			case 1:
				return Total(n)
			case 2:
				return Prefix(n)
			default:
				return AllRange(n)
			}
		}
		a, b := mk(), mk()
		w := Product2D(a, b)
		sa := mat.L1Norm(a.Matrix())
		sb := mat.L1Norm(b.Matrix())
		return math.Abs(w.Sensitivity()-sa*sb) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad permutation")
		}
	}()
	Permute(Identity(3), []int{0, 0, 2})
}

// TestBuiltinToken: the built-in sets and permutations of them vouch for
// their tokens; an Explicit matrix, a permutation of one, and a set of a
// type defined elsewhere do not.
func TestBuiltinToken(t *testing.T) {
	perm := RandPerm(6, 3)
	explicit := NewExplicit("E", mat.Ones(2, 6))
	for _, c := range []struct {
		ps PredicateSet
		ok bool
	}{
		{Identity(6), true}, {Total(6), true}, {Prefix(6), true}, {AllRange(6), true},
		{WidthRange(6, 2), true}, {Permute(AllRange(6), perm), true},
		{explicit, false}, {Permute(explicit, perm), false},
		{struct{ PredicateSet }{Total(6)}, false},
	} {
		tok, ok := BuiltinToken(c.ps)
		if ok != c.ok || (ok && tok != CanonicalToken(c.ps)) {
			t.Errorf("%s: BuiltinToken = %q, %v; want ok %v and the canonical token", c.ps.Name(), tok, ok, c.ok)
		}
	}
}
