package mech

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/kron"
	"repro/internal/marginals"
	"repro/internal/mat"
)

func TestL2SensitivityDense(t *testing.T) {
	m := mat.FromRows([][]float64{{3, 0}, {4, 1}})
	// Column L2 norms: 5 and 1.
	if got := L2Sensitivity(kron.Wrap(m), kron.NewWorkspace()); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2 = %v want 5", got)
	}
}

func TestL2SensitivityKronMultiplies(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := mat.NewDense(3, 2)
	b := mat.NewDense(4, 3)
	for _, m := range []*mat.Dense{a, b} {
		d := m.Data()
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	p := kron.NewProduct(a, b)
	want := maxColL2(p.Explicit())
	if got := L2Sensitivity(p, kron.NewWorkspace()); math.Abs(got-want) > 1e-10 {
		t.Fatalf("kron L2 = %v want %v", got, want)
	}
}

func TestL2SensitivityStackIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	a := mat.NewDense(2, 4)
	b := mat.NewDense(3, 4)
	for _, m := range []*mat.Dense{a, b} {
		d := m.Data()
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	s := kron.NewStack([]kron.Linear{kron.Wrap(a), kron.Wrap(b)}, []float64{0.5, 2})
	exact := maxColL2(mat.VStack(a.Clone().Scale(0.5), b.Clone().Scale(2)))
	bound := L2Sensitivity(s, kron.NewWorkspace())
	if bound < exact-1e-12 {
		t.Fatalf("stack bound %v below exact %v (privacy violation)", bound, exact)
	}
}

// probeOnly hides an operator's L2Sensitivity method, so L2Sensitivity
// takes its column-probing fallback.
type probeOnly struct{ kron.Linear }

func TestL2SensitivityGenericFallback(t *testing.T) {
	// The marginal operator, its closed form hidden, exercises the
	// basis-probing fallback.
	s := core.NewMarginalStrategy(newTestSpace(), []float64{0.25, 0.25, 0.25, 0.25})
	got := L2Sensitivity(probeOnly{s.Operator()}, kron.NewWorkspace())
	// Exact value: every domain column appears once per marginal with
	// weight θ_a, so col L2 = sqrt(Σθ²) = sqrt(4·(1/16)) = 0.5.
	if math.Abs(got-0.5) > 1e-10 {
		t.Fatalf("marginal L2 = %v want 0.5", got)
	}
}

// TestL2SensitivityClosedFormsMatchProbe pins the closed forms of OPT_M's
// weighted marginals (√Σθ², summed in subset order) and of the identity
// (1) to the column probe bit for bit, so a Gaussian σ keeps its bits.
// The weights include zeros (inactive subsets), the total, uneven values
// and the six equal 2-way weights of four attributes (√(1/6)).
func TestL2SensitivityClosedFormsMatchProbe(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	cases := []struct {
		sizes []int
		theta []float64
	}{
		{[]int{2, 3}, []float64{0.25, 0.25, 0.25, 0.25}},
		{[]int{2, 3}, []float64{0, 0.7, 0.3, 0}},
		{[]int{3, 2, 4}, []float64{0.1, 0, 0.2, 0.05, 0.3, 0, 0.15, 0.2}},
		{[]int{4, 4, 4, 4}, []float64{0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0}},
		{[]int{2, 2, 3, 2}, nil},
	}
	for _, c := range cases {
		theta := c.theta
		if theta == nil {
			theta = make([]float64, 1<<len(c.sizes))
			for i := range theta {
				theta[i] = rng.Float64()
			}
		}
		op := core.NewMarginalStrategy(marginals.NewSpace(c.sizes), theta).Operator()
		got, want := L2Sensitivity(op, kron.NewWorkspace()), L2Sensitivity(probeOnly{op}, kron.NewWorkspace())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("OPT_M %v θ=%v: closed form %v, probe %v", c.sizes, theta, got, want)
		}
	}
	for _, n := range []int{1, 7, 64} {
		op := (&core.IdentityStrategy{N: n}).Operator()
		if got, want := L2Sensitivity(op, kron.NewWorkspace()), L2Sensitivity(probeOnly{op}, kron.NewWorkspace()); got != 1 || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("identity n=%d: closed form %v, probe %v", n, got, want)
		}
	}
}

func TestMeasureGaussianCalibration(t *testing.T) {
	src := rand.NewPCG(3, 3)
	n := 4
	a := kron.Wrap(mat.Eye(n).Scale(2)) // L2 sensitivity 2
	x := []float64{1, 2, 3, 4}
	eps, delta := 0.8, 1e-5
	sigma := GaussianSigma(2, eps, delta)
	const trials = 40000
	var sumsq float64
	for tr := 0; tr < trials; tr++ {
		y := Measure(a, x, eps, delta, src, kron.NewWorkspace())
		for i := range y {
			d := y[i] - 2*x[i]
			sumsq += d * d
		}
	}
	got := sumsq / float64(trials*n)
	if math.Abs(got-sigma*sigma)/(sigma*sigma) > 0.05 {
		t.Fatalf("variance %v want %v", got, sigma*sigma)
	}
}

func TestGaussianSigmaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid delta")
		}
	}()
	GaussianSigma(1, 1, 0)
}

// newTestSpace builds a tiny 2-attribute lattice for the fallback test.
func newTestSpace() *marginals.Space {
	return marginals.NewSpace([]int{2, 3})
}
