package lsmr

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func TestSolveConsistentSystem(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := randMat(rng, 12, 5)
	xTrue := make([]float64, 5)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := mat.MatVec(nil, a, xTrue)
	res := Solve(kron.Wrap(a), b, kron.NewWorkspace(), Options{})
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v (%s)", i, res.X[i], xTrue[i], res.Stopped)
		}
	}
}

func TestSolveLeastSquares(t *testing.T) {
	// Overdetermined inconsistent system: compare against normal equations.
	rng := rand.New(rand.NewPCG(3, 4))
	a := randMat(rng, 20, 6)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := Solve(kron.Wrap(a), b, kron.NewWorkspace(), Options{MaxIter: 500, Atol: 1e-12, Btol: 1e-12})
	g := mat.Gram(nil, a)
	atb := mat.MatTVec(nil, a, b)
	want, err := mat.SolveSPD(g, atb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v", i, res.X[i], want[i])
		}
	}
}

func TestSolveKroneckerOperator(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	p := kron.NewProduct(randMat(rng, 4, 3), randMat(rng, 5, 4))
	_, c := p.Dims()
	xTrue := make([]float64, c)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	r, _ := p.Dims()
	b := make([]float64, r)
	p.MatVec(b, xTrue, kron.NewWorkspace())
	res := Solve(p, b, kron.NewWorkspace(), Options{})
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("kron solve x[%d] = %v want %v", i, res.X[i], xTrue[i])
		}
	}
}

func TestSolveZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := randMat(rng, 5, 3)
	res := Solve(kron.Wrap(a), make([]float64, 5), kron.NewWorkspace(), Options{})
	for _, v := range res.X {
		if v != 0 {
			t.Fatal("zero rhs should give zero solution")
		}
	}
}

func TestSolveMinimumNorm(t *testing.T) {
	// Underdetermined system: LSMR returns the minimum-norm solution, which
	// equals A⁺b.
	rng := rand.New(rand.NewPCG(9, 10))
	a := randMat(rng, 3, 8)
	b := make([]float64, 3)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := Solve(kron.Wrap(a), b, kron.NewWorkspace(), Options{MaxIter: 1000, Atol: 1e-13, Btol: 1e-13})
	ap, err := mat.Pinv(a)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MatVec(nil, ap, b)
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("min-norm x[%d] = %v want %v", i, res.X[i], want[i])
		}
	}
}
