package lsmr

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
)

// norm2Plain is the historical accumulation — the differential reference
// the rewritten norm2 is pinned against on in-range inputs.
func norm2Plain(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// TestNorm2DifferentialInRange: for every vector whose plain sum of squares
// stays finite and non-zero, the rewritten norm2 takes the fast path and
// returns the exact bits of the historical accumulation.
func TestNorm2DifferentialInRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(300)
		scale := math.Pow(10, float64(rng.IntN(241)-120)) // 1e-120 … 1e120
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * scale
		}
		want := norm2Plain(x)
		if math.IsInf(want, 1) || want == 0 {
			continue // out-of-range draws are covered by the dedicated tests
		}
		if got := norm2(x); got != want {
			t.Fatalf("trial %d (n=%d scale=%g): norm2 = %v, reference = %v", trial, n, scale, got, want)
		}
	}
}

// TestNorm2Overflow: large well-scaled vectors whose squared sum overflows
// must return the representable true norm instead of +Inf — the headline
// norm2 bug.
func TestNorm2Overflow(t *testing.T) {
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1e160
	}
	if ref := norm2Plain(x); !math.IsInf(ref, 1) {
		t.Fatal("test vector no longer overflows the plain accumulation")
	}
	want := 1e160 * math.Sqrt(1000)
	if got := norm2(x); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("norm2 = %v want %v", got, want)
	}
}

// TestNorm2Underflow: a non-zero vector whose every square underflows to
// zero must return its true (representable) norm, not zero.
func TestNorm2Underflow(t *testing.T) {
	x := []float64{1e-200, -1e-200, 1e-200, 1e-200}
	if ref := norm2Plain(x); ref != 0 {
		t.Fatal("test vector no longer underflows the plain accumulation")
	}
	want := 1e-200 * 2
	if got := norm2(x); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("norm2 = %v want %v", got, want)
	}
}

// TestNorm2Edges: all-zero stays zero, a genuine Inf entry stays Inf, NaN
// propagates.
func TestNorm2Edges(t *testing.T) {
	if got := norm2(make([]float64, 7)); got != 0 {
		t.Fatalf("norm2(0) = %v", got)
	}
	if got := norm2([]float64{1, math.Inf(1), 2}); !math.IsInf(got, 1) {
		t.Fatalf("norm2 with Inf entry = %v", got)
	}
	if got := norm2([]float64{1, math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("norm2 with NaN entry = %v", got)
	}
}

// TestToleranceSentinels: the zero-value Options keep the historical
// defaults bit for bit.
func TestToleranceSentinels(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	a := kron.Wrap(randMat(rng, 20, 6))
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	implicit := Solve(a, b, kron.NewWorkspace(), Options{})
	explicit := Solve(a, b, kron.NewWorkspace(), Options{Atol: 1e-8, Btol: 1e-8})
	if implicit.Iters != explicit.Iters || implicit.Stopped != explicit.Stopped {
		t.Fatalf("zero-value defaults diverged: %d/%q vs %d/%q", implicit.Iters, implicit.Stopped, explicit.Iters, explicit.Stopped)
	}
	for i := range implicit.X {
		if implicit.X[i] != explicit.X[i] {
			t.Fatalf("zero-value defaults diverged at X[%d]", i)
		}
	}
}
