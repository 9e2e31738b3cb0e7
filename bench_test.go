// Benchmarks regenerating every table and figure of the paper's evaluation,
// at reduced (ScaleSmall) settings so `go test -bench=.` completes on a
// laptop. Run `go run ./cmd/experiments -scale default <name>` for the
// full-size outputs.
package hdmm_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mat"
)

// BenchmarkMulParallel measures the dense GEMM kernel (the inner loop of
// every OPT₀ gradient evaluation) at n=768, serial vs sharded across 4
// cores. The two paths produce bit-identical results; the ratio is pure
// speedup.
func BenchmarkMulParallel(b *testing.B) {
	n := 768
	a := mat.NewDense(n, n)
	c := mat.NewDense(n, n)
	for i, d := 0, a.Data(); i < len(d); i++ {
		d[i] = float64(i%17) * 0.25
	}
	for i, d := 0, c.Data(); i < len(d); i++ {
		d[i] = float64(i%13) * 0.5
	}
	dst := mat.NewDense(n, n)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("Workers=%d", workers), func(b *testing.B) {
			prev := mat.SetWorkers(workers)
			defer mat.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				mat.Mul(dst, a, c)
			}
		})
	}
}

func benchExperiment(b *testing.B, f func(experiments.Scale) string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out := f(experiments.ScaleSmall)
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (error ratios across all datasets and
// algorithms).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, experiments.Table3) }

// BenchmarkTable4a regenerates Table 4(a) (1-D range-query error ratios).
func BenchmarkTable4a(b *testing.B) { benchExperiment(b, experiments.Table4a) }

// BenchmarkTable4b regenerates Table 4(b) (2-D range-query error ratios).
func BenchmarkTable4b(b *testing.B) { benchExperiment(b, experiments.Table4b) }

// BenchmarkTable5 regenerates Table 5 (up-to-K-way marginals on 10^8).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, experiments.Table5) }

// BenchmarkTable6 regenerates Table 6 (DAWA with GreedyH vs OPT₀ stage 2).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, experiments.Table6) }

// BenchmarkFig1a regenerates Figure 1(a) (select runtime, Prefix 1D).
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, experiments.Fig1a) }

// BenchmarkFig1b regenerates Figure 1(b) (select runtime, Prefix 3D).
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, experiments.Fig1b) }

// BenchmarkFig1c regenerates Figure 1(c) (select runtime, 3-way marginals).
func BenchmarkFig1c(b *testing.B) { benchExperiment(b, experiments.Fig1c) }

// BenchmarkFig1d regenerates Figure 1(d) (measure+reconstruct runtime).
func BenchmarkFig1d(b *testing.B) { benchExperiment(b, experiments.Fig1d) }

// BenchmarkFig2 regenerates Figure 2 (OPT₀ error vs p).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, experiments.Fig2) }

// BenchmarkFig3 regenerates Figure 3 (local-minima distribution).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4 regenerates Figure 4 (strategy visualization).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkFig5 regenerates Figure 5 (OPT₀ vs OPT⊗ quality over time).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, experiments.Fig5) }

// BenchmarkFig6 regenerates Figure 6 (OPT₀ and OPT_M scalability).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, experiments.Fig6) }

// BenchmarkAblation regenerates the operator-set ablation of DESIGN.md.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, experiments.Ablation) }
