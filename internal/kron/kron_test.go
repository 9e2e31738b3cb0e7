package kron

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

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

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestKmatvecMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.IntN(4)
		factors := make([]*mat.Dense, d)
		for i := range factors {
			factors[i] = randMat(rng, 1+rng.IntN(4), 1+rng.IntN(4))
		}
		p := NewProduct(factors...)
		pr, pc := p.Dims()
		ex := p.Explicit()
		if er, ec := ex.Dims(); er != pr || ec != pc {
			t.Fatalf("dims mismatch: %dx%d vs %dx%d", pr, pc, er, ec)
		}
		x := randVec(rng, pc)
		got := make([]float64, pr)
		p.MatVec(got, x, NewWorkspace())
		want := mat.MatVec(nil, ex, x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: MatVec[%d] = %v want %v", trial, i, got[i], want[i])
			}
		}
		y := randVec(rng, pr)
		gotT := make([]float64, pc)
		p.MatTVec(gotT, y, NewWorkspace())
		wantT := mat.MatTVec(nil, ex, y)
		for i := range wantT {
			if math.Abs(gotT[i]-wantT[i]) > 1e-9 {
				t.Fatalf("trial %d: MatTVec[%d] = %v want %v", trial, i, gotT[i], wantT[i])
			}
		}
	}
}

func TestSensitivityTheorem3(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 15; trial++ {
		d := 1 + rng.IntN(3)
		factors := make([]*mat.Dense, d)
		for i := range factors {
			m := randMat(rng, 1+rng.IntN(5), 1+rng.IntN(5))
			// Non-negative factors (strategies are non-negative).
			md := m.Data()
			for j := range md {
				md[j] = math.Abs(md[j])
			}
			factors[i] = m
		}
		p := NewProduct(factors...)
		want := mat.L1Norm(p.Explicit())
		if got := p.Sensitivity(); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Sensitivity = %v want %v", got, want)
		}
	}
}

func TestProductPinv(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	// Full-column-rank tall factors.
	a := randMat(rng, 5, 3)
	b := randMat(rng, 4, 2)
	p := NewProduct(a, b)
	pinv, err := p.Pinv()
	if err != nil {
		t.Fatal(err)
	}
	// (A⊗B)⁺ should satisfy A⁺A = I on the small side: pinv·p == I(6).
	ex := p.Explicit()
	exPinv := pinv.Explicit()
	prod := mat.Mul(nil, exPinv, ex)
	if !mat.Equalish(prod, mat.Eye(6), 1e-8) {
		t.Fatal("(A⊗B)⁺(A⊗B) != I")
	}
}

func TestStack(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := NewProduct(randMat(rng, 2, 3), randMat(rng, 3, 2))
	b := NewProduct(randMat(rng, 1, 3), randMat(rng, 4, 2))
	s := NewStack([]Linear{a, b}, []float64{2, 0.5})
	sr, sc := s.Dims()
	if sr != 2*3+1*4 || sc != 6 {
		t.Fatalf("stack dims %d×%d", sr, sc)
	}
	ex := mat.VStack(a.Explicit().Scale(2), b.Explicit().Scale(0.5))
	x := randVec(rng, sc)
	got := make([]float64, sr)
	s.MatVec(got, x, NewWorkspace())
	want := mat.MatVec(nil, ex, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatal("stack MatVec mismatch")
		}
	}
	y := randVec(rng, sr)
	gotT := make([]float64, sc)
	s.MatTVec(gotT, y, NewWorkspace())
	wantT := mat.MatTVec(nil, ex, y)
	for i := range wantT {
		if math.Abs(gotT[i]-wantT[i]) > 1e-9 {
			t.Fatal("stack MatTVec mismatch")
		}
	}
}

// TestSum: a weighted sum of products matches the explicit sum in both
// directions, and above the fan-out threshold its bits do not depend on
// the worker count.
func TestSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	a := NewProduct(randMat(rng, 3, 2), randMat(rng, 4, 3))
	b := NewProduct(randMat(rng, 3, 2), randMat(rng, 4, 3))
	s := NewSum([]Linear{a, b}, []float64{2, -0.5})
	ex := a.Explicit().Scale(2)
	ex.Add(b.Explicit().Scale(-0.5))
	x := randVec(rng, 6)
	got := make([]float64, 12)
	s.MatVec(got, x, NewWorkspace())
	for i, w := range mat.MatVec(nil, ex, x) {
		if math.Abs(got[i]-w) > 1e-9 {
			t.Fatal("sum MatVec mismatch")
		}
	}
	y := randVec(rng, 12)
	gotT := make([]float64, 6)
	s.MatTVec(gotT, y, NewWorkspace())
	for i, w := range mat.MatTVec(nil, ex, y) {
		if math.Abs(gotT[i]-w) > 1e-9 {
			t.Fatal("sum MatTVec mismatch")
		}
	}

	big := NewSum([]Linear{
		NewProduct(randMat(rng, 64, 64), randMat(rng, 70, 70)),
		NewProduct(randMat(rng, 64, 64), randMat(rng, 70, 70)),
	}, []float64{0.3, 0.7})
	bx := randVec(rng, 64*70)
	var ref []float64
	for _, w := range []int{1, 2, 4} {
		prev := SetWorkers(w)
		out := make([]float64, 64*70)
		big.MatVec(out, bx, NewWorkspace())
		SetWorkers(prev)
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: element %d differs from workers=1", w, i)
			}
		}
	}
}

func TestDenseWrapper(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	m := randMat(rng, 4, 5)
	d := Wrap(m)
	r, c := d.Dims()
	if r != 4 || c != 5 {
		t.Fatal("dims")
	}
	x := randVec(rng, 5)
	got := make([]float64, 4)
	d.MatVec(got, x, NewWorkspace())
	want := mat.MatVec(nil, m, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("wrap matvec")
		}
	}
}

// Property: mixed-product rule (A⊗B)(C⊗D) = (AC)⊗(BD), checked via the
// implicit operator applied to the explicit right factor's columns.
func TestQuickMixedProduct(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		m1, n1, k1 := 1+rng.IntN(3), 1+rng.IntN(3), 1+rng.IntN(3)
		m2, n2, k2 := 1+rng.IntN(3), 1+rng.IntN(3), 1+rng.IntN(3)
		a, c := randMat(rng, m1, n1), randMat(rng, n1, k1)
		b, d := randMat(rng, m2, n2), randMat(rng, n2, k2)
		lhs := mat.Mul(nil, NewProduct(a, b).Explicit(), NewProduct(c, d).Explicit())
		rhs := NewProduct(mat.Mul(nil, a, c), mat.Mul(nil, b, d)).Explicit()
		return mat.Equalish(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gram of a Kronecker product is the Kronecker product of Grams
// (the WᵀW identity of Section 4.4).
func TestQuickKronGram(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		a := randMat(rng, 1+rng.IntN(4), 1+rng.IntN(4))
		b := randMat(rng, 1+rng.IntN(4), 1+rng.IntN(4))
		lhs := mat.Gram(nil, NewProduct(a, b).Explicit())
		rhs := NewProduct(mat.Gram(nil, a), mat.Gram(nil, b)).Explicit()
		return mat.Equalish(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
