package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/schema"
	"repro/internal/workload"
)

// denseStrategyErr computes ‖A‖₁²·tr((AᵀA)⁺·WᵀW) from explicit matrices.
func denseStrategyErr(t *testing.T, a *mat.Dense, w *workload.Workload) float64 {
	t.Helper()
	g := mat.Gram(nil, a)
	gp, err := mat.PinvSym(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	wm := w.ExplicitMatrix()
	y := mat.Gram(nil, wm)
	sens := mat.L1Norm(a)
	return sens * sens * mat.TraceMul(gp, y)
}

func randTheta(rng *rand.Rand, p, n int) *mat.Dense {
	m := mat.NewDense(p, n)
	d := m.Data()
	for i := range d {
		d[i] = rng.Float64()
	}
	return m
}

func TestKronStrategyErrorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	dom := schema.Sizes(6, 5)
	w := workload.MustNew(dom,
		workload.NewProduct(workload.Prefix(6), workload.Identity(5)),
		workload.Product{Weight: 2, Terms: []workload.PredicateSet{workload.AllRange(6), workload.Total(5)}},
	)
	s := NewKronStrategy(
		NewPIdentity(randTheta(rng, 2, 6)),
		NewPIdentity(randTheta(rng, 1, 5)),
	)
	got, err := s.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit: A = A1 ⊗ A2.
	a := workload.Kron2(s.Subs[0].Matrix(), s.Subs[1].Matrix())
	want := denseStrategyErr(t, a, w)
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("Kron error = %v want %v", got, want)
	}
}

func TestKronStrategyReconstructIsLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := NewKronStrategy(
		NewPIdentity(randTheta(rng, 2, 4)),
		NewPIdentity(randTheta(rng, 1, 3)),
	)
	op := s.Operator()
	rows, cols := op.Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	got, err := s.Reconstruct(y, kron.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	// Dense A⁺y.
	a := workload.Kron2(s.Subs[0].Matrix(), s.Subs[1].Matrix())
	ap, err := mat.Pinv(a)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MatVec(nil, ap, y)
	if len(got) != cols {
		t.Fatalf("reconstruct length %d want %d", len(got), cols)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("reconstruct[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestMarginalStrategyErrorMatchesDense(t *testing.T) {
	dom := schema.Sizes(3, 2, 2)
	w := workload.KWayMarginals(dom, 2)
	theta := []float64{0.1, 0.3, 0.2, 0.15, 0.05, 0.08, 0.07, 0.05}
	s := NewMarginalStrategy(marginalSpace(dom), theta)
	got, err := s.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	// Dense comparison: materialize M(θ).
	a := explicitMarginalMatrix(s)
	want := denseStrategyErr(t, a, w)
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("Marginal error = %v want %v", got, want)
	}
}

func TestMarginalStrategySensitivity(t *testing.T) {
	dom := schema.Sizes(2, 3)
	s := NewMarginalStrategy(marginalSpace(dom), []float64{1, 2, 3, 4})
	a := explicitMarginalMatrix(s)
	if got := mat.L1Norm(a); math.Abs(got-1) > 1e-10 {
		t.Fatalf("‖M(θ)‖₁ = %v want 1 after normalization", got)
	}
	if s.Sensitivity() != 1 {
		t.Fatal("Sensitivity() != 1")
	}
}

func TestMarginalStrategyOperatorMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	dom := schema.Sizes(2, 3, 2)
	s := NewMarginalStrategy(marginalSpace(dom), []float64{0.2, 0.1, 0, 0.3, 0.05, 0, 0.15, 0.2})
	op := s.Operator()
	rows, cols := op.Dims()
	a := explicitMarginalMatrix(s)
	if ar, ac := a.Dims(); ar != rows || ac != cols {
		t.Fatalf("operator dims %d×%d explicit %d×%d", rows, cols, ar, ac)
	}
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, rows)
	op.MatVec(got, x, kron.NewWorkspace())
	want := mat.MatVec(nil, a, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("marginal MatVec[%d] = %v want %v", i, got[i], want[i])
		}
	}
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	gotT := make([]float64, cols)
	op.MatTVec(gotT, y, kron.NewWorkspace())
	wantT := mat.MatTVec(nil, a, y)
	for i := range wantT {
		if math.Abs(gotT[i]-wantT[i]) > 1e-9 {
			t.Fatal("marginal MatTVec mismatch")
		}
	}
}

func TestMarginalStrategyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	dom := schema.Sizes(2, 2, 3)
	s := NewMarginalStrategy(marginalSpace(dom), []float64{0.1, 0.2, 0.1, 0.15, 0.1, 0.1, 0.1, 0.15})
	op := s.Operator()
	rows, _ := op.Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	got, err := s.Reconstruct(y, kron.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	a := explicitMarginalMatrix(s)
	ap, err := mat.Pinv(a)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MatVec(nil, ap, y)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("marginal reconstruct[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestIdentityStrategy(t *testing.T) {
	dom := schema.Sizes(4, 3)
	w := workload.MustNew(dom, workload.NewProduct(workload.Prefix(4), workload.Identity(3)))
	s := &IdentityStrategy{N: 12}
	e, err := s.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-w.GramTrace()) > 1e-12 {
		t.Fatal("identity error != GramTrace")
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	r, err := s.Reconstruct(x, kron.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if r[i] != x[i] {
			t.Fatal("identity reconstruct should copy")
		}
	}
}

func TestOptimalShares(t *testing.T) {
	shares := OptimalShares([]float64{8, 1})
	if math.Abs(shares[0]+shares[1]-1) > 1e-12 {
		t.Fatal("shares must sum to 1")
	}
	// β ∝ cbrt(err): 2:1.
	if math.Abs(shares[0]/shares[1]-2) > 1e-9 {
		t.Fatalf("shares ratio = %v want 2", shares[0]/shares[1])
	}
	// Verify optimality by perturbation.
	obj := func(b0 float64) float64 { return 8/(b0*b0) + 1/((1-b0)*(1-b0)) }
	best := obj(shares[0])
	for _, d := range []float64{-0.01, 0.01} {
		if obj(shares[0]+d) < best {
			t.Fatal("shares not optimal")
		}
	}
}

// helpers

func marginalSpace(dom *schema.Domain) *spaceAlias {
	return newSpaceAlias(dom)
}
