package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kron"
	"repro/internal/workload"
)

func testKronStrategy(t testing.TB) *KronStrategy {
	w := workload.MustNew(schemaSizes(32, 16),
		workload.NewProduct(workload.AllRange(32), workload.AllRange(16)))
	s, _, err := OPTKron(w, OPTKronOptions{Seed: 3, MaxIter: 15, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testUnionStrategy(t testing.TB) *UnionStrategy {
	w := workload.MustNew(schemaSizes(16, 16),
		workload.NewProduct(workload.AllRange(16), workload.Total(16)),
		workload.NewProduct(workload.Total(16), workload.AllRange(16)),
	)
	s, _, err := OPTPlus(w, OPTKronOptions{Seed: 5, MaxIter: 15, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKronReconstructDeterministicAcrossWorkers pins the pseudo-inverse
// reconstruction byte-for-byte across worker counts: every measurement
// reconstructs to the same bits at Workers 1, 4 and 8.
func TestKronReconstructDeterministicAcrossWorkers(t *testing.T) {
	s := testKronStrategy(t)
	rows, _ := s.Operator().Dims()
	rng := rand.New(rand.NewPCG(9, 1))
	ys := make([][]float64, 7)
	for i := range ys {
		ys[i] = make([]float64, rows)
		for j := range ys[i] {
			ys[i][j] = rng.NormFloat64()
		}
	}
	checkReconstructAcrossWorkers(t, s.Reconstruct, ys)
}

// checkReconstructAcrossWorkers reconstructs every measurement at Workers
// 1, 4 and 8 (one subtest each, reusing one workspace across its
// measurements) and requires the results of each worker count to match
// the first bit for bit.
func checkReconstructAcrossWorkers(t *testing.T, reconstruct func([]float64, *kron.Workspace) ([]float64, error), ys [][]float64) {
	t.Helper()
	var first [][]float64
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := kron.SetWorkers(workers)
			defer kron.SetWorkers(prev)
			ws := kron.NewWorkspace()
			got := make([][]float64, len(ys))
			for i, y := range ys {
				x, err := reconstruct(y, ws)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = x
			}
			if first == nil {
				first = got
				return
			}
			for i := range got {
				if len(got[i]) != len(first[i]) {
					t.Fatalf("measurement %d: length %d, want %d", i, len(got[i]), len(first[i]))
				}
				for j := range got[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(first[i][j]) {
						t.Fatalf("measurement %d element %d: %v, workers=1 gave %v", i, j, got[i][j], first[i][j])
					}
				}
			}
		})
	}
}

// TestUnionReconstructWSMatchesDefault verifies workspace reuse changes
// nothing numerically: a solve through one workspace reused across
// consecutive reconstructions is byte-identical to the same solve through
// a fresh workspace.
func TestUnionReconstructWSMatchesDefault(t *testing.T) {
	s := testUnionStrategy(t)
	rows, _ := s.Operator().Dims()
	rng := rand.New(rand.NewPCG(13, 2))
	ws := kron.NewWorkspace()
	for trial := 0; trial < 3; trial++ {
		y := make([]float64, rows)
		for j := range y {
			y[j] = rng.NormFloat64()
		}
		want, err := s.Reconstruct(y, kron.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ReconstructOpt(y, ws, ReconstructOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d element %d: reused ws %v, fresh %v", trial, j, got[j], want[j])
			}
		}
	}
}

// BenchmarkReconstruct measures the RECONSTRUCT phase the serving path
// performs once per engine and experiments perform once per trial: the
// Kronecker pseudo-inverse application (OPT⊗ strategies) and the LSMR
// solve over the stacked operator (OPT⁺ strategies). allocs/op is the
// tracked regression number: the GEMM/workspace kernels keep both paths
// O(1) in allocations, where the pre-rewrite kernels allocated fresh
// intermediates per factor per application (and per LSMR iteration).
func BenchmarkReconstruct(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	b.Run("kron", func(b *testing.B) {
		s := testKronStrategy(b)
		rows, _ := s.Operator().Dims()
		y := make([]float64, rows)
		for j := range y {
			y[j] = rng.NormFloat64()
		}
		ws := kron.NewWorkspace()
		if _, err := s.Reconstruct(y, ws); err != nil { // warm the pinv cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Reconstruct(y, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union", func(b *testing.B) {
		s := testUnionStrategy(b)
		rows, _ := s.Operator().Dims()
		y := make([]float64, rows)
		for j := range y {
			y[j] = rng.NormFloat64()
		}
		ws := kron.NewWorkspace()
		if _, err := s.ReconstructOpt(y, ws, ReconstructOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReconstructOpt(y, ws, ReconstructOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
