package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestCholeskyTraceSolveMatchesSolveMat pins the bit-identity contract of
// the trace-only solve: the skipped upper-triangle back-substitution must
// not change a single byte of the result relative to the full SolveMat
// followed by Trace.
func TestCholeskyTraceSolveMatchesSolveMat(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(24)
		m := randSPD(rng, n)
		y := NewDense(n, n)
		d := y.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}

		ch, err := NewCholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		want := Trace(ch.SolveMat(y.Clone()))
		got := ch.TraceSolve(y.Clone())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: TraceSolve = %v (bits %x), Trace(SolveMat) = %v (bits %x)",
				n, got, got, want, want)
		}

		free, err := TraceSolve(m, y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(free) != math.Float64bits(want) {
			t.Fatalf("n=%d: free TraceSolve = %v, want %v", n, free, want)
		}
	}
}

// TestTraceSolveLeavesYIntact guards the free function's documented
// contract (y is not modified), which the in-place method does not share.
func TestTraceSolveLeavesYIntact(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 8))
	m := randSPD(rng, 6)
	y := randSPD(rng, 6)
	before := y.Clone()
	if _, err := TraceSolve(m, y); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(y, before) != 0 {
		t.Fatal("TraceSolve modified its y argument")
	}
}

// TestCholeskyFactorReusesStorage pins Factor's reuse: refactoring into
// one Cholesky, after a matrix of the same size, of another size, or one
// that is not positive definite, gives the bits a fresh NewCholesky gives,
// and reuses the factor's storage when the size repeats.
func TestCholeskyFactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	spd := func(n int) *Dense {
		a := NewDense(n+2, n)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		return Gram(nil, a)
	}
	var c Cholesky
	for _, n := range []int{5, 5, 3, 7, 7} {
		m := spd(n)
		before := c.l
		if err := c.Factor(m); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if before != nil && before.r == n && c.l != before {
			t.Fatalf("n=%d: Factor reallocated a factor of the same size", n)
		}
		want, err := NewCholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.l.data {
			if math.Float64bits(c.l.data[i]) != math.Float64bits(v) {
				t.Fatalf("n=%d: L[%d] = %v, fresh factor %v", n, i, c.l.data[i], v)
			}
		}
		notPD := m.Clone()
		notPD.Set(n-1, n-1, -1)
		if err := c.Factor(notPD); err != ErrNotPD {
			t.Fatalf("n=%d: Factor of an indefinite matrix: %v, want ErrNotPD", n, err)
		}
	}
}
