package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/census"
	"repro/internal/kron"
	"repro/internal/lsmr"
	"repro/internal/mat"
)

// deviationEstimate estimates ‖I − AᵀA‖₂ by power iteration on the
// symmetric I − AᵀA from a fixed random start. Every iterate's ‖(I −
// AᵀA)·v‖ for unit v is a lower bound on the norm, so the last one is too.
func deviationEstimate(a kron.Linear, iters int, seed uint64) float64 {
	rows, cols := a.Dims()
	rng := rand.New(rand.NewPCG(seed, 1))
	v := make([]float64, cols)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	av := make([]float64, rows)
	next := make([]float64, cols)
	ws := kron.NewWorkspace()
	est := 0.0
	for k := 0; k < iters; k++ {
		n := math.Sqrt(mat.SqSum(v))
		for i := range v {
			v[i] /= n
		}
		a.MatVec(av, v, ws)
		a.MatTVec(next, av, ws)
		for i := range next {
			next[i] = v[i] - next[i]
		}
		est = math.Sqrt(mat.SqSum(next))
		v, next = next, v
	}
	return est
}

// checkAtolDirect applies LSMR's atol test to the preconditioned solution
// z directly: ‖(AM)ᵀr‖ ≤ atol·√(1−δ)·‖r‖ for r = y − AM·z, with the
// certificate's lower bound standing in for ‖AM‖₂.
func checkAtolDirect(t *testing.T, am kron.Linear, delta float64, y, z []float64) {
	t.Helper()
	rows, cols := am.Dims()
	ws := kron.NewWorkspace()
	r := make([]float64, rows)
	am.MatVec(r, z, ws)
	for i := range r {
		r[i] = y[i] - r[i]
	}
	g := make([]float64, cols)
	am.MatTVec(g, r, ws)
	normg, normr := math.Sqrt(mat.SqSum(g)), math.Sqrt(mat.SqSum(r))
	if bound := 1e-8 * math.Sqrt(1-delta) * normr; normg > bound {
		t.Errorf("‖(AM)ᵀr‖ = %g exceeds LSMR's atol bound %g (‖r‖ = %g)", normg, bound, normr)
	}
}

// TestPencilCertificate: on the two-part pencil union the certificate δ
// bounds a power-iteration estimate of ‖I − (AM)ᵀAM‖₂ from above, is below
// 1, and the refinement it licenses stops after one step with a solution
// that meets LSMR's atol test when checked directly.
func TestPencilCertificate(t *testing.T) {
	s := testUnionStrategy(t)
	am, _, delta := s.precond()
	if am == nil {
		t.Fatal("two-part union has no pencil preconditioner")
	}
	est := deviationEstimate(am, 200, 1)
	if !(delta >= est) || !(delta < 1) {
		t.Fatalf("certificate δ = %g, power-iteration estimate %g: want estimate ≤ δ < 1", delta, est)
	}
	rng := rand.New(rand.NewPCG(53, 54))
	for trial := 0; trial < 3; trial++ {
		y := randMeasurement(rng, s)
		var info SolveInfo
		if _, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &info}); err != nil {
			t.Fatal(err)
		}
		if info.Method != SolveRefine || info.Iters != 1 || info.Stopped != lsmr.StoppedAtol {
			t.Fatalf("trial %d: %+v, want one certified refinement step", trial, info)
		}
		res := lsmr.Refine(s.normal(), y, kron.NewWorkspace(), lsmr.Options{})
		checkAtolDirect(t, am, delta, y, res.X)
	}
}

// TestSolveMethodFallback pins the decision between the refinement and
// LSMR: only a certificate below 1 refines. A union whose certificate is
// forced to 1 solves with LSMR and still matches the reference, and the
// iteration budget keeps its meaning on the refinement path: MaxIter 0 is
// the solver default and 1 allows the one step the pencil union needs,
// so both converge, as the LSMR solve they replace did.
func TestSolveMethodFallback(t *testing.T) {
	for _, tc := range []struct {
		delta float64
		want  string
	}{
		{0, SolveRefine}, {4.9e-6, SolveRefine}, {0.999, SolveRefine},
		{1, SolveLSMR}, {3, SolveLSMR}, {math.Inf(1), SolveLSMR}, {math.NaN(), SolveLSMR},
	} {
		if got := solveMethod(tc.delta); got != tc.want {
			t.Errorf("solveMethod(%g) = %q, want %q", tc.delta, got, tc.want)
		}
	}

	rng := rand.New(rand.NewPCG(55, 56))
	s := testUnionStrategy(t)
	y := randMeasurement(rng, s)
	ref := referenceSolve(t, s, y)

	forced := testUnionStrategy(t)
	forced.precond()
	forced.pcDelta = 1
	var info SolveInfo
	got, err := forced.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &info})
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != SolveLSMR || !info.Preconditioned {
		t.Fatalf("δ = 1: %+v, want a preconditioned LSMR solve", info)
	}
	checkClose(t, got, ref)

	for _, maxIter := range []int{0, 1} {
		var info SolveInfo
		got, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{MaxIter: maxIter, Info: &info})
		if err != nil {
			t.Fatalf("MaxIter %d: %v", maxIter, err)
		}
		if info.Method != SolveRefine || info.Iters != 1 {
			t.Fatalf("MaxIter %d: %+v, want one refinement step", maxIter, info)
		}
		checkClose(t, got, ref)
	}
}

// TestRefineFallsBackWhenUncertified: for a noise-free measurement
// y = A·x the residual is below the identity's rounding allowance, so the
// refinement cannot certify; the union then solves with preconditioned
// LSMR and still recovers x.
func TestRefineFallsBackWhenUncertified(t *testing.T) {
	s := testUnionStrategy(t)
	rows, cols := s.Operator().Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(i%11) + 3
	}
	y := make([]float64, rows)
	s.Operator().MatVec(y, x, kron.NewWorkspace())
	var info SolveInfo
	got, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &info})
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != SolveLSMR || !info.Preconditioned {
		t.Fatalf("noise-free measurement: %+v, want a preconditioned LSMR solve", info)
	}
	checkClose(t, got, x)
}

// checkClose compares a solution with the reference at the tolerance of
// TestUnionPreconditionedMatchesReference.
func checkClose(t *testing.T, got, ref []float64) {
	t.Helper()
	scale := 1.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range ref {
		if d := math.Abs(got[i] - ref[i]); d > 1e-5*scale {
			t.Fatalf("x[%d] = %v, reference %v (diff %g, scale %g)", i, got[i], ref[i], d, scale)
		}
	}
}

// TestRefineAllocsNoMoreThanLSMR: with a caller-held workspace, a
// refinement reconstruction allocates no more than the preconditioned
// LSMR reconstruction it replaces.
func TestRefineAllocsNoMoreThanLSMR(t *testing.T) {
	prev := kron.SetWorkers(1)
	defer kron.SetWorkers(prev)
	rng := rand.New(rand.NewPCG(57, 58))
	refine := testUnionStrategy(t)
	viaLSMR := testUnionStrategy(t)
	viaLSMR.precond()
	viaLSMR.pcDelta = 1
	y := randMeasurement(rng, refine)
	allocs := func(s *UnionStrategy, method string) float64 {
		var info SolveInfo
		ws := kron.NewWorkspace()
		opts := ReconstructOptions{Info: &info}
		if _, err := s.ReconstructOpt(y, ws, opts); err != nil { // grow the workspace
			t.Fatal(err)
		}
		if info.Method != method {
			t.Fatalf("ran %q, want %q", info.Method, method)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := s.ReconstructOpt(y, ws, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	r, l := allocs(refine, SolveRefine), allocs(viaLSMR, SolveLSMR)
	t.Logf("allocations per reconstruction: refinement %v, LSMR %v", r, l)
	if r > l {
		t.Errorf("refinement allocates %v per reconstruction, LSMR %v", r, l)
	}
}

// TestUnionRefineCPH runs the certificate on the OPT⁺ strategy selected for
// the CPH workload (two parts, 2,506,140 × 500,480): δ bounds a short
// power-iteration estimate and is below 1; at ε = 0.5, 1 and 2 one
// refinement step is certified for a Laplace measurement, the residual
// identity agrees with the explicit row-space residual within its
// allowance, and the preconditioned solution meets LSMR's atol test when
// checked directly; and at ε = 1 x̂ is bit-identical at Workers 1 and 4
// and agrees with the LSMR solve (δ forced to 1) at the reference
// tolerance, with an unpreconditioned gradient ‖Aᵀ(y − A·x̂)‖ within a
// factor 2 of LSMR's.
func TestUnionRefineCPH(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("selects and reconstructs on the 500,480-cell CPH domain")
	}
	w, err := census.CPHMarginalWorkload()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(w, HDMMOptions{Restarts: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := sel.Strategy.(*UnionStrategy)
	if !ok || len(s.Parts) != 2 {
		t.Fatalf("CPH selected %s (%T), want a two-part OPT+ union", sel.Operator, sel.Strategy)
	}
	am, _, delta := s.precond()
	if est := deviationEstimate(am, 8, 2); !(delta >= est) || !(delta < 1) {
		t.Fatalf("certificate δ = %g, power-iteration estimate %g: want estimate ≤ δ < 1", delta, est)
	}

	// y = A·x + Lap(1/ε) for a skewed synthetic population.
	op := s.Operator()
	rows, cols := op.Dims()
	ws := kron.NewWorkspace()
	rng := rand.New(rand.NewPCG(59, 60))
	x := make([]float64, cols)
	for range 200_000 {
		x[int(float64(cols)*rng.Float64()*rng.Float64())]++
	}
	ax := make([]float64, rows)
	op.MatVec(ax, x, ws)
	measure := func(eps float64) []float64 {
		y := make([]float64, rows)
		for i := range y {
			y[i] = ax[i] + (rng.ExpFloat64()-rng.ExpFloat64())/eps
		}
		return y
	}
	var y, got []float64
	for _, eps := range []float64{0.5, 2, 1} {
		y = measure(eps)
		var info SolveInfo
		if got, err = s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &info}); err != nil {
			t.Fatal(err)
		}
		if info.Method != SolveRefine || info.Iters != 1 || info.Stopped != lsmr.StoppedAtol {
			t.Fatalf("ε = %g: CPH solve %+v, want one certified refinement step", eps, info)
		}
		z := lsmr.Refine(s.normal(), y, kron.NewWorkspace(), lsmr.Options{}).X
		r := make([]float64, rows)
		am.MatVec(r, z, ws)
		for i := range r {
			r[i] = y[i] - r[i]
		}
		explicit := mat.SqSum(r)
		r2, allow := lsmr.Residual(s.normal(), y, z)
		t.Logf("ε = %g: ‖r‖² identity %.9g, explicit %.9g (gap %.3g), allowance %.3g", eps, r2, explicit, math.Abs(r2-explicit), allow)
		if d := math.Abs(r2 - explicit); d > allow {
			t.Errorf("ε = %g: identity ‖r‖² = %.9g, explicit %.9g: gap %g exceeds the allowance %g", eps, r2, explicit, d, allow)
		}
		checkAtolDirect(t, am, delta, y, z)
	}
	for _, w := range []int{1, 4} {
		prev := kron.SetWorkers(w)
		again, err := s.Reconstruct(y, ws)
		kron.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
				t.Fatalf("workers=%d: x̂[%d] = %v, default workers %v", w, i, again[i], got[i])
			}
		}
	}

	s.pcDelta = 1
	var lsmrInfo SolveInfo
	ref, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &lsmrInfo})
	if err != nil {
		t.Fatal(err)
	}
	if lsmrInfo.Method != SolveLSMR {
		t.Fatalf("δ = 1 ran %q", lsmrInfo.Method)
	}
	checkClose(t, got, ref)
	gradNorm := func(xh []float64) float64 {
		r := make([]float64, rows)
		op.MatVec(r, xh, ws)
		for i := range r {
			r[i] = y[i] - r[i]
		}
		g := make([]float64, cols)
		op.MatTVec(g, r, ws)
		return math.Sqrt(mat.SqSum(g))
	}
	gr, gl := gradNorm(got), gradNorm(ref)
	t.Logf("δ = %g; ‖Aᵀ(y − A·x̂)‖: refinement %g, LSMR %g", delta, gr, gl)
	if gr > 2*gl {
		t.Errorf("‖Aᵀ(y − A·x̂)‖: refinement %g, LSMR %g", gr, gl)
	}
}
