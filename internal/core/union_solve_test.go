package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/lsmr"
	"repro/internal/obs"
)

// testUnionStrategyLSMR is testUnionStrategy with its pencil certificate
// forced to +Inf, the value a declined pencil leaves, so the
// preconditioned solve takes the LSMR fallback instead of the refinement.
func testUnionStrategyLSMR(t testing.TB) *UnionStrategy {
	s := testUnionStrategy(t)
	s.precond()
	s.pcDelta = math.Inf(1)
	return s
}

func randMeasurement(rng *rand.Rand, s *UnionStrategy) []float64 {
	rows, _ := s.Operator().Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return y
}

// referenceSolve is the retained oracle: plain unpreconditioned lsmr.Solve
// over the union operator, run to a much tighter tolerance than the
// production path so its solution error is negligible against the
// comparison tolerance.
func referenceSolve(t *testing.T, s *UnionStrategy, y []float64) []float64 {
	res := lsmr.Solve(s.Operator(), y, kron.NewWorkspace(), lsmr.Options{Atol: 1e-13, Btol: 1e-13})
	if res.Stopped == lsmr.StoppedMaxIter {
		t.Fatalf("reference solve did not converge (%d iters)", res.Iters)
	}
	return res.X
}

// TestUnionReconstructNonConvergence is the headline bugfix contract: a
// solve whose iteration budget binds must surface ErrNotConverged — with
// the best iterate still returned — instead of silently handing back a
// garbage estimate, with and without the preconditioner.
func TestUnionReconstructNonConvergence(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))

	t.Run("plain", func(t *testing.T) {
		s := testUnionStrategy(t)
		y := randMeasurement(rng, s)
		var info SolveInfo
		x, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{NoPrecond: true, MaxIter: 1, Info: &info})
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("err = %v, want ErrNotConverged", err)
		}
		if x == nil {
			t.Fatal("best iterate not returned alongside the error")
		}
		if info.Stopped != lsmr.StoppedMaxIter || info.Iters != 1 {
			t.Fatalf("info = %+v, want 1 iteration stopped at %q", info, lsmr.StoppedMaxIter)
		}
	})

	t.Run("preconditioned", func(t *testing.T) {
		// The pencil-preconditioned operator has orthonormal columns up to
		// rounding, so both its solves converge in one step at the true
		// certificate (~1e-11 here). A certificate just under 1 is loose
		// but valid, and the refinement's atol test scales its tolerance
		// by √(1−δ): the first step cannot certify, so a budget of 1 binds
		// and a budget of 2 does not.
		s := testUnionStrategy(t)
		s.precond()
		s.pcDelta = 1 - 0x1p-40
		y := randMeasurement(rng, s)
		var info SolveInfo
		_, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{MaxIter: 1, Info: &info})
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("err = %v, want ErrNotConverged", err)
		}
		if !info.Preconditioned || info.Method != SolveRefine {
			t.Fatalf("info = %+v, want a preconditioned refinement", info)
		}
		if _, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{MaxIter: 2}); err != nil {
			t.Fatalf("two-step budget: %v", err)
		}
	})
}

// TestUnionPreconditionedMatchesReference is the property test pinning the
// preconditioned production solve against the retained lsmr.Solve oracle:
// same solution to tolerance, on both the certified refinement and the
// preconditioned LSMR fallback.
func TestUnionPreconditionedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *UnionStrategy
	}{
		{"refine", func(tb testing.TB) *UnionStrategy { return testUnionStrategy(tb) }},
		{"lsmr", func(tb testing.TB) *UnionStrategy { return testUnionStrategyLSMR(tb) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			for trial := 0; trial < 3; trial++ {
				y := randMeasurement(rng, s)
				ref := referenceSolve(t, s, y)
				var info SolveInfo
				got, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &info})
				if err != nil {
					t.Fatal(err)
				}
				if !info.Preconditioned {
					t.Fatal("production solve was not preconditioned")
				}
				scale := 1.0
				for _, v := range ref {
					if a := math.Abs(v); a > scale {
						scale = a
					}
				}
				for i := range ref {
					if d := math.Abs(got[i] - ref[i]); d > 1e-5*scale {
						t.Fatalf("trial %d: x[%d] = %v, reference %v (diff %g, scale %g)", trial, i, got[i], ref[i], d, scale)
					}
				}
			}
		})
	}
}

// TestUnionPrecondSavesIterations documents the point of the tentpole: the
// preconditioned solve must use strictly fewer LSMR iterations than the
// plain reference on the same measurement — and on the exact pencil path,
// a handful at most.
func TestUnionPrecondSavesIterations(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	s := testUnionStrategy(t)
	y := randMeasurement(rng, s)
	var plain, pc SolveInfo
	if _, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{NoPrecond: true, Info: &plain}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{Info: &pc}); err != nil {
		t.Fatal(err)
	}
	if pc.Iters >= plain.Iters {
		t.Fatalf("preconditioned solve took %d iterations, plain took %d", pc.Iters, plain.Iters)
	}
	if pc.Iters > 5 {
		t.Fatalf("pencil-preconditioned solve took %d iterations, want ≤ 5 (orthonormal columns)", pc.Iters)
	}
}

// TestUnionReconstructDeterministicAcrossWorkers pins the preconditioned
// union LSMR reconstruction byte-for-byte at Workers 1, 4 and 8.
func TestUnionReconstructDeterministicAcrossWorkers(t *testing.T) {
	s := testUnionStrategy(t)
	rng := rand.New(rand.NewPCG(51, 52))
	ys := make([][]float64, 4)
	for j := range ys {
		ys[j] = randMeasurement(rng, s)
	}
	checkReconstructAcrossWorkers(t, s.Reconstruct, ys)
}

// TestUnionReconstructTracesMapBack: a traced preconditioned
// reconstruction charges the map back x = M·z to the solve stage, next to
// the solve itself, so a registration's stage spans cover it. The
// refinement and its map back are one observation, the preconditioned
// LSMR fallback and its map back two, and the unpreconditioned
// solve has no map back and records the solve alone.
func TestUnionReconstructTracesMapBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 48))
	for _, tc := range []struct {
		name      string
		build     func(testing.TB) *UnionStrategy
		noPrecond bool
		method    string
		want      int
	}{
		{"refine", func(tb testing.TB) *UnionStrategy { return testUnionStrategy(tb) }, false, SolveRefine, 1},
		{"lsmr", func(tb testing.TB) *UnionStrategy { return testUnionStrategyLSMR(tb) }, false, SolveLSMR, 2},
		{"plain", func(tb testing.TB) *UnionStrategy { return testUnionStrategy(tb) }, true, SolveLSMR, 1},
	} {
		s := tc.build(t)
		y := randMeasurement(rng, s)
		tr := obs.NewTrace("reconstruct")
		var info SolveInfo
		if _, err := s.ReconstructOpt(y, kron.NewWorkspace(), ReconstructOptions{NoPrecond: tc.noPrecond, Info: &info, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		if info.Preconditioned == tc.noPrecond || info.Method != tc.method {
			t.Fatalf("%s: ran preconditioned=%v method=%q", tc.name, info.Preconditioned, info.Method)
		}
		count := 0
		for _, sp := range tr.Spans() {
			if sp.Stage == obs.StageSolve {
				count = sp.Count
			}
		}
		if count != tc.want {
			t.Errorf("%s: %d solve-stage observations, want %d", tc.name, count, tc.want)
		}
	}
}
