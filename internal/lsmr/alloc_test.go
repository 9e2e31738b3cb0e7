package lsmr

import (
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/obs"
)

// TestSolveAllocsIndependentOfIterations asserts the reconstruction-side
// O(1)-allocation contract: with a preallocated workspace threaded through
// the operator applications, a solve's allocation count does not grow with
// its iteration count. Before the GEMM/workspace rewrite every iteration
// allocated fresh mode-contraction intermediates (O(d) allocations per
// matvec per iteration); now all scratch lives in the workspace, so a
// 10-iteration and a 200-iteration solve allocate the same handful of
// solver-local vectors.
func TestSolveAllocsIndependentOfIterations(t *testing.T) {
	prev := kron.SetWorkers(1)
	defer kron.SetWorkers(prev)

	rng := rand.New(rand.NewPCG(3, 9))
	// A stacked union of products — the operator shape UnionStrategy
	// reconstruction solves — too ill-conditioned to converge early at the
	// tight default tolerances.
	blocks := []kron.Linear{
		kron.NewProduct(randMat(rng, 9, 8), randMat(rng, 40, 32)),
		kron.NewProduct(randMat(rng, 7, 8), randMat(rng, 36, 32)),
	}
	s := kron.NewStack(blocks, []float64{0.6, 0.4})
	rows, _ := s.Dims()
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ws := kron.NewWorkspace()
	atol := 1e-300 // force the iteration budget to be the binding stop rule

	solve := func(iters int) Result {
		return Solve(s, b, ws, Options{MaxIter: iters, Atol: atol, Btol: atol})
	}
	if got := solve(200).Iters; got != 200 {
		t.Fatalf("long solve stopped after %d iterations, want the full 200", got)
	}

	short := testing.AllocsPerRun(5, func() { solve(10) })
	long := testing.AllocsPerRun(5, func() { solve(200) })
	if long > short {
		t.Errorf("200-iteration solve allocates %v, 10-iteration solve %v — allocations grow with iterations", long, short)
	}
}

// TestTracedSolveAddsNoAllocs pins the observability contract on the hot
// path: attaching a trace to a solve adds exactly zero allocations (the
// StageSolve observation lives outside the iteration loop and records into
// fixed-size storage), and the numerical result is bit-identical.
func TestTracedSolveAddsNoAllocs(t *testing.T) {
	prev := kron.SetWorkers(1)
	defer kron.SetWorkers(prev)

	rng := rand.New(rand.NewPCG(5, 11))
	s := kron.NewStack([]kron.Linear{
		kron.NewProduct(randMat(rng, 9, 8), randMat(rng, 40, 32)),
		kron.NewProduct(randMat(rng, 7, 8), randMat(rng, 36, 32)),
	}, []float64{0.6, 0.4})
	rows, _ := s.Dims()
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ws := kron.NewWorkspace()
	tr := obs.NewTrace("alloc")
	base := Options{MaxIter: 50, Atol: 1e-300, Btol: 1e-300}
	traced := base
	traced.Trace = tr

	plainRes := Solve(s, b, ws, base)
	tracedRes := Solve(s, b, ws, traced)
	for i, v := range plainRes.X {
		if tracedRes.X[i] != v {
			t.Fatalf("traced solve diverged at %d: %v vs %v", i, tracedRes.X[i], v)
		}
	}

	plain := testing.AllocsPerRun(5, func() { Solve(s, b, ws, base) })
	withTrace := testing.AllocsPerRun(5, func() { Solve(s, b, ws, traced) })
	if withTrace > plain {
		t.Errorf("traced solve allocates %v, untraced %v — tracing must add 0", withTrace, plain)
	}

	spans := tr.Spans()
	if len(spans) == 0 || spans[0].Stage != obs.StageSolve || spans[0].Total <= 0 {
		t.Errorf("trace recorded %+v, want a positive solve span", spans)
	}
}
