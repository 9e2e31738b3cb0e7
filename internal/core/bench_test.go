package core

import (
	"fmt"
	"testing"

	"repro/internal/census"
	"repro/internal/mat"
	"repro/internal/workload"
)

// BenchmarkOpt0Objective measures one O(p·n²) evaluation of the Theorem 4
// objective, the hot loop of all of HDMM: with gradient at n=1024, p=64,
// and at p=7, n=115 on the CPH age Gram (the shape that dominates a CPH
// selection, where most evaluations are the line search's objective-only
// calls) both without and with the gradient. The p=7 cases evaluate at an
// OPT₀ optimum: like the iterates the line search visits, most of its Θ
// sits on the box's lower bound at exactly zero, which the kernels skip.
func BenchmarkOpt0Objective(b *testing.B) {
	run := func(b *testing.B, y *mat.Dense, p int, x []float64, withGrad bool) {
		obj := newOpt0Objective(y, p, y.Rows())
		var grad []float64
		if withGrad {
			grad = make([]float64, len(x))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obj.eval(x, grad)
		}
	}
	b.Run("n1024p64/gradient", func(b *testing.B) {
		x := make([]float64, 64*1024)
		for i := range x {
			x[i] = 0.5
		}
		run(b, workload.AllRange(1024).Gram(), 64, x, true)
	})
	y := cphAgeGram(b)
	x := opt0Point(y, 7)
	b.Run("p7n115/objective", func(b *testing.B) { run(b, y, 7, x, false) })
	b.Run("p7n115/gradient", func(b *testing.B) { run(b, y, 7, x, true) })
}

// cphAgeGram is the sum of the age-term Grams of
// census.CPHMarginalWorkload: the 115×115 surrogate Gram OPT⊗ hands OPT₀
// for the age attribute, with every other attribute's weight at one.
func cphAgeGram(tb testing.TB) *mat.Dense {
	w, err := census.CPHMarginalWorkload()
	if err != nil {
		tb.Fatal(err)
	}
	age := w.Domain.NumAttrs() - 1
	n := w.Domain.Attr(age).Size
	y := mat.NewDense(n, n)
	for _, p := range w.Products {
		y.Add(p.Terms[age].Gram())
	}
	return y
}

// opt0Point returns the Θ of a short OPT₀ descent on y with p extra rows.
func opt0Point(y *mat.Dense, p int) []float64 {
	s, _ := OPT0(y, OPT0Options{P: p, Restarts: 1, Seed: 21, MaxIter: 50})
	return s.Theta.Data()
}

// BenchmarkOPT0Small measures a full OPT₀ run at n=256.
func BenchmarkOPT0Small(b *testing.B) {
	y := workload.AllRange(256).Gram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OPT0(y, OPT0Options{P: 16, Restarts: 1, Seed: uint64(i), MaxIter: 50})
	}
}

// BenchmarkOPT0Restarts measures 8 independent OPT₀ restarts at n=256 —
// Algorithm 2's dominant loop — serial (Workers=1) vs parallel (Workers=4).
// The restarts are bit-identical across the two settings (see
// parallel_test.go), so the ratio is pure speedup.
func BenchmarkOPT0Restarts(b *testing.B) {
	y := workload.AllRange(256).Gram()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("Workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				OPT0(y, OPT0Options{P: 16, Restarts: 8, Seed: 42, MaxIter: 25, Workers: workers})
			}
		})
	}
}

// BenchmarkOPTKron measures OPT⊗ on a 3-attribute union workload — parallel
// restarts plus the per-attribute block subproblems inside each cycle.
func BenchmarkOPTKron(b *testing.B) {
	dom := schemaSizes(64, 48, 32)
	w, err := workload.New(dom,
		workload.NewProduct(workload.AllRange(64), workload.Total(48), workload.Identity(32)),
		workload.NewProduct(workload.Identity(64), workload.Prefix(48), workload.Total(32)),
	)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("Workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := OPTKronOptions{Restarts: 4, MaxIter: 25, Cycles: 2, Seed: 42, Workers: workers}
				if _, _, err := OPTKron(w, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOPTMarg8D measures OPT_M on 2-way marginals over an 8-attribute
// domain (the O(4^d) lattice path).
func BenchmarkOPTMarg8D(b *testing.B) {
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 10
	}
	w := workload.KWayMarginals(schemaSizes(sizes...), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OPTMarg(w, OPTMargOptions{Seed: uint64(i), MaxIter: 50}); err != nil {
			b.Fatal(err)
		}
	}
}
