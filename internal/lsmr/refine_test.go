package lsmr

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/mat"
)

// nearOrthonormal returns an m×n operator A = Q·diag(σ) with orthonormal
// columns Q and σⱼ² spread evenly over [1 − delta, 1 + delta], so that
// ‖I − AᵀA‖₂ = delta exactly.
func nearOrthonormal(rng *rand.Rand, m, n int, delta float64) *mat.Dense {
	_, q, err := mat.SymEigen(mat.Gram(nil, randMat(rng, m+3, m)))
	if err != nil {
		panic(err)
	}
	a := mat.NewDense(m, n)
	for j := 0; j < n; j++ {
		sigma := math.Sqrt(1 - delta + 2*delta*float64(j)/float64(n-1))
		for i := 0; i < m; i++ {
			a.Set(i, j, q.At(i, j)*sigma)
		}
	}
	return a
}

// normalOf is the normal-equations form of min ‖b − A·x‖ for an explicit
// A: N is the computed Gram, whose rounding is at most γ_m·‖A‖²_F.
func normalOf(a *mat.Dense, delta float64) Normal {
	m, _ := a.Dims()
	fro := mat.SqSum(a.Data())
	return Normal{A: kron.Wrap(a), N: kron.Wrap(mat.Gram(nil, a)), Delta: delta, GramErr: gamma(m) * fro}
}

// atolHolds applies LSMR's atol test to x directly, with the certificate's
// lower bound √(1−delta) standing in for ‖A‖₂.
func atolHolds(a *mat.Dense, b, x []float64, delta float64) bool {
	r := mat.MatVec(nil, a, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	g := mat.MatTVec(nil, a, r)
	return norm2(g) <= 1e-8*math.Sqrt(1-delta)*norm2(r)
}

// TestRefineMatchesSolve: on an operator whose normal matrix is exactly
// delta away from the identity, the refinement converges to the tightly
// converged LSMR solution, its result meets LSMR's atol test when checked
// directly, and the number of steps shrinks as delta does.
func TestRefineMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	prevSteps := math.MaxInt
	for _, delta := range []float64{0.5, 0.1, 1e-3} {
		a := nearOrthonormal(rng, 40, 12, delta)
		b := make([]float64, 40)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res := Refine(normalOf(a, delta), b, kron.NewWorkspace(), Options{})
		if res.Stopped != StoppedAtol {
			t.Fatalf("δ=%g: stopped %q after %d steps", delta, res.Stopped, res.Iters)
		}
		if !atolHolds(a, b, res.X, delta) {
			t.Errorf("δ=%g: result fails LSMR's atol test", delta)
		}
		if res.Iters > prevSteps {
			t.Errorf("δ=%g took %d steps, more than a larger δ's %d", delta, res.Iters, prevSteps)
		}
		prevSteps = res.Iters
		ref := Solve(kron.Wrap(a), b, kron.NewWorkspace(), Options{Atol: 1e-13, Btol: 1e-13})
		for i := range ref.X {
			if d := math.Abs(res.X[i] - ref.X[i]); d > 1e-7 {
				t.Fatalf("δ=%g: x[%d] = %v, reference %v", delta, i, res.X[i], ref.X[i])
			}
		}
		r := mat.MatVec(nil, a, res.X)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if d := math.Abs(res.Resid - norm2(r)); d > 1e-6*norm2(r) {
			t.Errorf("δ=%g: residual estimate %v, actual %v", delta, res.Resid, norm2(r))
		}
	}
}

// TestRefineIterationBudget: a budget smaller than the certificate needs
// stops at StoppedMaxIter with the iterate it reached.
func TestRefineIterationBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 74))
	a := nearOrthonormal(rng, 40, 12, 0.5)
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := Refine(normalOf(a, 0.5), b, kron.NewWorkspace(), Options{MaxIter: 1})
	if res.Stopped != StoppedMaxIter || res.Iters != 1 || res.X == nil {
		t.Fatalf("got %d steps, stopped %q, want 1 step stopped at the budget", res.Iters, res.Stopped)
	}
}

// TestRefineZeroRHS mirrors Solve: a zero right-hand side returns x = 0.
func TestRefineZeroRHS(t *testing.T) {
	a := nearOrthonormal(rand.New(rand.NewPCG(75, 76)), 10, 4, 0.1)
	res := Refine(normalOf(a, 0.1), make([]float64, 10), kron.NewWorkspace(), Options{})
	if res.Stopped != StoppedZeroRHS || res.Iters != 0 {
		t.Fatalf("got %+v", res)
	}
	for _, v := range res.X {
		if v != 0 {
			t.Fatalf("x = %v, want zeros", res.X)
		}
	}
}

// TestRefineRejectsUncertifiedDelta: the contraction argument needs
// 0 ≤ delta < 1; anything else is a caller bug.
func TestRefineRejectsUncertifiedDelta(t *testing.T) {
	for _, delta := range []float64{1, 2, -0.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Refine accepted δ = %g", delta)
				}
			}()
			Refine(normalOf(mat.Eye(3), delta), []float64{1, 2, 3}, kron.NewWorkspace(), Options{})
		}()
	}
}

// TestResidualIdentityWithinAllowance: on random iterates of
// near-orthonormal problems, the identity's ‖r‖² lies within its
// allowance of the explicit ‖b − A·x‖², even when b is nearly
// consistent and the identity cancels almost all of its terms.
func TestResidualIdentityWithinAllowance(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 20; trial++ {
		a := nearOrthonormal(rng, 60, 15, 0.3)
		x := make([]float64, 15)
		for i := range x {
			x[i] = 1e3 * rng.NormFloat64()
		}
		b := mat.MatVec(nil, a, x)
		noise := math.Pow(10, -float64(trial%8))
		for i := range b {
			b[i] += noise * rng.NormFloat64()
		}
		z := make([]float64, 15)
		for i := range z {
			z[i] = x[i] + noise*rng.NormFloat64()
		}
		r := mat.MatVec(nil, a, z)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		explicit := mat.SqSum(r)
		r2, allow := Residual(normalOf(a, 0.3), b, z)
		if d := math.Abs(r2 - explicit); d > allow+1e-12*explicit {
			t.Fatalf("trial %d: identity ‖r‖² = %g, explicit %g, allowance %g", trial, r2, explicit, allow)
		}
	}
}

// TestRefineUncertifiedOnConsistentSystem: when b = A·x exactly, the
// iterates approach the exact solution until the allowance swallows the
// identity's residual; from then on no step can certify, and Refine says
// so instead of spending the rest of its iteration budget.
func TestRefineUncertifiedOnConsistentSystem(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	a := nearOrthonormal(rng, 40, 12, 0.5)
	x := make([]float64, 12)
	for i := range x {
		x[i] = 100 + rng.NormFloat64()
	}
	res := Refine(normalOf(a, 0.5), mat.MatVec(nil, a, x), kron.NewWorkspace(), Options{})
	if res.Stopped != StoppedUncertified {
		t.Fatalf("consistent system: stopped %q after %d steps, want %q", res.Stopped, res.Iters, StoppedUncertified)
	}
}
