package core

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/mat"
	"repro/internal/optimize"
	"repro/internal/workload"
)

// bruteErr computes tr((AᵀA)⁻¹·Y) densely from the explicit strategy.
func bruteErr(t *testing.T, s *PIdentity, y *mat.Dense) float64 {
	t.Helper()
	g := mat.Gram(nil, s.Matrix())
	v, err := mat.TraceSolve(g, y)
	if err != nil {
		t.Fatalf("brute: %v", err)
	}
	return v
}

func TestPIdentityMatrixStructure(t *testing.T) {
	theta := mat.FromRows([][]float64{{1, 2, 3}, {1, 1, 1}})
	s := NewPIdentity(theta)
	a := s.Matrix()
	// Example 8 from the paper.
	want := mat.FromRows([][]float64{
		{1.0 / 3, 0, 0},
		{0, 0.25, 0},
		{0, 0, 0.2},
		{1.0 / 3, 0.5, 0.6},
		{1.0 / 3, 0.25, 0.2},
	})
	if !mat.Equalish(a, want, 1e-12) {
		t.Fatalf("A(Θ) structure wrong:\n%v", a.Data())
	}
	// Sensitivity exactly 1.
	if got := mat.L1Norm(a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("‖A‖₁ = %v want 1", got)
	}
}

func TestGramInvAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, dims := range [][2]int{{1, 4}, {3, 8}, {5, 16}} {
		p, n := dims[0], dims[1]
		theta := mat.NewDense(p, n)
		td := theta.Data()
		for i := range td {
			td[i] = rng.Float64() * 2
		}
		s := NewPIdentity(theta)
		gi, err := s.GramInv()
		if err != nil {
			t.Fatal(err)
		}
		g := mat.Gram(nil, s.Matrix())
		if !mat.Equalish(mat.Mul(nil, gi, g), mat.Eye(n), 1e-8) {
			t.Fatalf("GramInv wrong for p=%d n=%d", p, n)
		}
	}
}

func TestOpt0ObjectiveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	n, p := 12, 3
	y := workload.AllRange(n).Gram()
	obj := newOpt0Objective(y, p, n)
	x := make([]float64, p*n)
	for i := range x {
		x[i] = 0.1 + rng.Float64()
	}
	got := obj.eval(x, nil)
	s := NewPIdentity(mat.FromData(p, n, append([]float64(nil), x...)))
	want := bruteErr(t, s, y)
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("objective = %v want %v", got, want)
	}
}

func TestOpt0GradientFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, dims := range [][2]int{{1, 5}, {2, 8}, {4, 10}} {
		p, n := dims[0], dims[1]
		y := workload.Prefix(n).Gram()
		obj := newOpt0Objective(y, p, n)
		x := make([]float64, p*n)
		for i := range x {
			x[i] = 0.2 + rng.Float64()
		}
		if rel := optimize.CheckGradient(obj.eval, x, 1e-6); rel > 1e-4 {
			t.Fatalf("p=%d n=%d: gradient relative error %v", p, n, rel)
		}
	}
}

func TestOPT0BeatsIdentityOnRanges(t *testing.T) {
	n := 64
	y := workload.AllRange(n).Gram()
	identityErr := mat.Trace(y)
	s, e := OPT0(y, OPT0Options{P: 4, Seed: 7, MaxIter: 300, Restarts: 3})
	if e >= identityErr {
		t.Fatalf("OPT0 error %v not better than Identity %v", e, identityErr)
	}
	// Reported error must match the strategy's actual error.
	actual := bruteErr(t, s, y)
	if math.Abs(actual-e) > 1e-6*(1+e) {
		t.Fatalf("reported error %v != actual %v", e, actual)
	}
	// Meaningful improvement over Identity on all-range queries.
	if identityErr/e < 1.3 {
		t.Fatalf("improvement only %v×", identityErr/e)
	}
}

func TestOPT0IdentityWorkloadFallsBack(t *testing.T) {
	// For the Identity workload, the Identity strategy is optimal; OPT0 must
	// never return something worse.
	n := 16
	y := workload.Identity(n).Gram()
	_, e := OPT0(y, OPT0Options{P: 2, Seed: 1, MaxIter: 100})
	if e > float64(n)+1e-6 {
		t.Fatalf("OPT0 error %v on Identity workload exceeds Identity strategy %v", e, float64(n))
	}
}

func TestOPT0SupportsWorkload(t *testing.T) {
	// The support condition W·A⁺·A == W must hold for p-Identity strategies.
	n := 8
	w := workload.Prefix(n).Matrix()
	y := mat.Gram(nil, w)
	s, _ := OPT0(y, OPT0Options{P: 2, Seed: 5, MaxIter: 100})
	a := s.Matrix()
	ap, err := mat.Pinv(a)
	if err != nil {
		t.Fatal(err)
	}
	wapa := mat.Mul(nil, mat.Mul(nil, w, ap), a)
	if !mat.Equalish(wapa, w, 1e-8) {
		t.Fatal("W·A⁺·A != W")
	}
}

// sparseTheta draws a p×n Θ in OPT₀'s box whose entries are ~75% exact
// zeros and whose nonzeros span [1e-9, 1e4], with row zr and column zc all
// zero (when they exist).
func sparseTheta(rng *rand.Rand, p, n, zr, zc int) []float64 {
	x := make([]float64, p*n)
	for i := range x {
		if rng.IntN(4) != 0 {
			continue
		}
		x[i] = rng.Float64() * math.Pow(10, float64(rng.IntN(14)-9))
		if rng.IntN(20) == 0 {
			x[i] = thetaCap
		}
	}
	for j := 0; j < n && zr < p; j++ {
		x[zr*n+j] = 0
	}
	for k := 0; k < p && zc < n; k++ {
		x[k*n+zc] = 0
	}
	return x
}

// randGram returns WᵀW for a random (n+3)×n W of small integers, a
// workload Gram with the integer-valued entries real Grams have.
func randGram(rng *rand.Rand, n int) *mat.Dense {
	w := mat.NewDense(n+3, n)
	for i, d := 0, w.Data(); i < len(d); i++ {
		d[i] = float64(rng.IntN(5) - 1)
	}
	return mat.Gram(nil, w)
}

// bitsEqual fails the test unless got and want agree bit for bit.
func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%x), reference %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestOpt0ObjectiveMatchesReference pins the fused evaluation (three
// passes over n², sparse M and P₂, reused factorization) to the plain
// sequence of passes in opt0_ref_test.go, bit for bit, on sparse Θ with an
// all-zero row and column, at kernel Workers 1 and 2. n = 256 at p = 7
// takes Mul past the size threshold where Workers 2 shards it.
func TestOpt0ObjectiveMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2} {
		prev := mat.SetWorkers(workers)
		rng := rand.New(rand.NewPCG(28, uint64(workers)))
		shapes := [][2]int{{7, 256}}
		for _, p := range []int{1, 2, 7} {
			for _, n := range []int{2, 17, 64, 115} {
				shapes = append(shapes, [2]int{p, n})
			}
		}
		for _, sh := range shapes {
			p, n := sh[0], sh[1]
			y := randGram(rng, n)
			obj, ref := newOpt0Objective(y, p, n), newRefOpt0Objective(y, p, n)
			for draw := 0; draw < 4; draw++ {
				x := sparseTheta(rng, p, n, rng.IntN(p+1), rng.IntN(n+1))
				what := func(s string) string {
					return s + " at Workers " + strconv.Itoa(workers) + ", p " + strconv.Itoa(p) + ", n " + strconv.Itoa(n)
				}
				bitsEqual(t, what("objective"), []float64{obj.eval(x, nil)}, []float64{ref.eval(x, nil)})
				g, rg := make([]float64, p*n), make([]float64, p*n)
				bitsEqual(t, what("objective with gradient"), []float64{obj.eval(x, g)}, []float64{ref.eval(x, rg)})
				bitsEqual(t, what("gradient"), g, rg)
			}
		}
		mat.SetWorkers(prev)
	}
}

// TestOpt0DescentMatchesReference runs an OPT₀ descent on the CPH age
// Gram and checks every evaluation the optimizer asks for, the line
// search's trial points included, against the reference.
func TestOpt0DescentMatchesReference(t *testing.T) {
	y := cphAgeGram(t)
	const p = 7
	n := y.Rows()
	obj, ref := newOpt0Objective(y, p, n), newRefOpt0Objective(y, p, n)
	rg := make([]float64, p*n)
	evals := 0
	f := func(x, grad []float64) float64 {
		evals++
		if grad == nil {
			c := obj.eval(x, nil)
			bitsEqual(t, "objective", []float64{c}, []float64{ref.eval(x, nil)})
			return c
		}
		c := obj.eval(x, grad)
		bitsEqual(t, "objective with gradient", []float64{c}, []float64{ref.eval(x, rg)})
		bitsEqual(t, "gradient", grad, rg)
		return c
	}
	rng := rand.New(rand.NewPCG(7, 115))
	x0 := make([]float64, p*n)
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	lb, ub := make([]float64, p*n), make([]float64, p*n)
	for i := range ub {
		ub[i] = thetaCap
	}
	optimize.MinimizeBox(f, x0, lb, ub, optimize.Options{MaxIter: 40, Tol: 1e-7})
	if evals < 100 {
		t.Fatalf("descent made only %d evaluations", evals)
	}
}

// TestOpt0EvalAllocatesNothing pins the objective's workspace contract:
// after the first call, an evaluation with or without the gradient
// allocates nothing.
func TestOpt0EvalAllocatesNothing(t *testing.T) {
	y := cphAgeGram(t)
	const p = 7
	obj := newOpt0Objective(y, p, y.Rows())
	x := opt0Point(y, p)
	g := make([]float64, len(x))
	obj.eval(x, g)
	if a := testing.AllocsPerRun(20, func() { obj.eval(x, nil) }); a != 0 {
		t.Fatalf("objective-only eval: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { obj.eval(x, g) }); a != 0 {
		t.Fatalf("eval with gradient: %v allocs, want 0", a)
	}
}
