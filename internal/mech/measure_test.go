package mech

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// columnOp is an n×1 strategy: one column c with c_i = (i mod 97 + 1)/64,
// so A·x, ‖A‖₁ and ‖A‖₂ cost O(n) at any length.
func columnOp(n int) *kron.Product {
	c := mat.NewDense(n, 1)
	for i := 0; i < n; i++ {
		c.Set(i, 0, float64(i%97+1)/64)
	}
	return kron.NewProduct(c)
}

var testX = []float64{1234.5}

// serialMeasure is the reference MEASURE loop: y = A·x, then one serial
// pass adding each sample's noise from one rand.Rand over src.
func serialMeasure(a kron.Linear, eps, delta float64, src *rand.PCG) []float64 {
	rows, _ := a.Dims()
	y := make([]float64, rows)
	a.MatVec(y, testX, kron.NewWorkspace())
	rng := rand.New(src)
	if delta > 0 {
		sigma := GaussianSigma(L2Sensitivity(a, kron.NewWorkspace()), eps, delta)
		for i := range y {
			y[i] += rng.NormFloat64() * sigma
		}
		return y
	}
	b := a.Sensitivity() / eps
	for i := range y {
		y[i] += Laplace(rng, b)
	}
	return y
}

// pcgMulInverse returns s with s·pcgMul ≡ 1 (mod 2¹²⁸) by Newton's
// iteration; each step doubles the number of correct low bits.
func pcgMulInverse() u128 {
	inv := pcgMul // correct to 3 bits: a·a ≡ 1 (mod 8) for odd a
	two := u128{lo: 2}
	for range 7 {
		// inv ← inv·(2 − a·inv)
		prod := pcgMul.mul(inv)
		neg := u128{hi: ^prod.hi, lo: ^prod.lo}.add(u128{lo: 1})
		inv = inv.mul(two.add(neg))
	}
	return inv
}

// pcgBack returns the state k LCG steps before s.
func pcgBack(s u128, k int) u128 {
	inv := pcgMulInverse()
	negInc := u128{hi: ^pcgInc.hi, lo: ^pcgInc.lo}.add(u128{lo: 1})
	for range k {
		s = s.add(negInc).mul(inv)
	}
	return s
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestPCGJumpMatchesDraws pins pcgJump, and with it the multiplier and
// increment copied from math/rand/v2, against the library's own stepping.
func TestPCGJumpMatchesDraws(t *testing.T) {
	p := rand.NewPCG(0x1234, RNGStream)
	start := pcgStateOf(p)
	drawn := uint64(0)
	for _, k := range []uint64{0, 1, 2, 3, 63, 64, 1000, laplaceBlock, 3*laplaceBlock + 17} {
		for ; drawn < k; drawn++ {
			p.Uint64()
		}
		if got, want := pcgJump(start, k), pcgStateOf(p); got != want {
			t.Fatalf("pcgJump(s, %d) = %x, library state after %d draws %x", k, got, k, want)
		}
	}
	if back := pcgBack(pcgJump(start, 5), 5); back != start {
		t.Fatalf("pcgBack does not invert five steps: %x, want %x", back, start)
	}
}

// TestMeasureMatchesSerialLoop: the blocked, parallel Laplace draws give
// the reference serial loop's bytes at every worker count and length, and
// leave the source where the serial loop leaves it. The Gaussian path is
// checked against the same loop.
func TestMeasureMatchesSerialLoop(t *testing.T) {
	prev := parallel.SetKernelWorkers(1)
	defer parallel.SetKernelWorkers(prev)
	for _, n := range []int{1, laplaceBlock - 1, laplaceBlock, 3*laplaceBlock + 17} {
		a := columnOp(n)
		for _, delta := range []float64{0, 1e-6} {
			want := rand.NewPCG(uint64(n), 99)
			ref := serialMeasure(a, 0.7, delta, want)
			for _, w := range []int{1, 2, 4, 8} {
				parallel.SetKernelWorkers(w)
				src := rand.NewPCG(uint64(n), 99)
				got := Measure(a, testX, 0.7, delta, src, kron.NewWorkspace())
				if i := sameBits(got, ref); i >= 0 {
					t.Fatalf("n=%d δ=%g workers=%d: sample %d differs from the serial loop", n, delta, w, i)
				}
				if pcgStateOf(src) != pcgStateOf(want) {
					t.Fatalf("n=%d δ=%g workers=%d: source state differs from the serial loop's", n, delta, w)
				}
			}
		}
	}
}

// TestMeasureZeroDraw: a draw with Float64() == 0 makes Laplace draw again
// and shifts every later sample by one draw. A source whose draw at index
// i returns Uint64() == 0 (the state after it has a zero high word) is
// built by stepping the LCG back from such a state. Wherever the zero
// lands, Measure matches the serial loop in bytes and end state.
func TestMeasureZeroDraw(t *testing.T) {
	prev := parallel.SetKernelWorkers(1)
	defer parallel.SetKernelWorkers(prev)
	const n = 3*laplaceBlock + 17
	a := columnOp(n)
	for _, at := range []int{0, laplaceBlock / 2, 2 * laplaceBlock, n - 1} {
		seed := pcgBack(u128{hi: 0, lo: 0x9e3779b97f4a7c15}, at+1)
		probe := rand.NewPCG(seed.hi, seed.lo)
		for range at {
			probe.Uint64()
		}
		if v := probe.Uint64(); v != 0 {
			t.Fatalf("draw %d = %#x, want 0", at, v)
		}
		want := rand.NewPCG(seed.hi, seed.lo)
		ref := serialMeasure(a, 1.3, 0, want)
		if got := pcgStateOf(want); got != pcgJump(seed, n+1) {
			t.Fatalf("zero at %d: the serial loop did not take one extra draw", at)
		}
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("at=%d/workers=%d", at, w), func(t *testing.T) {
				parallel.SetKernelWorkers(w)
				src := rand.NewPCG(seed.hi, seed.lo)
				got := Measure(a, testX, 1.3, 0, src, kron.NewWorkspace())
				if i := sameBits(got, ref); i >= 0 {
					t.Fatalf("sample %d = %v, serial loop %v", i, got[i], ref[i])
				}
				if pcgStateOf(src) != pcgStateOf(want) {
					t.Fatal("source state differs from the serial loop's")
				}
			})
		}
	}
}

// TestMeasureCountsOnce: the blocked draws are one measurement.
func TestMeasureCountsOnce(t *testing.T) {
	before := MeasurementsTaken()
	Measure(columnOp(2*laplaceBlock), testX, 1, 0, rand.NewPCG(1, 2), kron.NewWorkspace())
	if d := MeasurementsTaken() - before; d != 1 {
		t.Fatalf("one Measure counted %d measurements", d)
	}
}
