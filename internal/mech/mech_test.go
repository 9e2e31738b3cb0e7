package mech

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/schema"
	"repro/internal/workload"
)

func TestLaplaceMomentsAndSpread(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	const n = 200000
	b := 2.5
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := Laplace(rng, b)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean = %v", mean)
	}
	// Var = 2b² = 12.5.
	if math.Abs(variance-12.5) > 0.5 {
		t.Fatalf("Laplace variance = %v want 12.5", variance)
	}
}

func TestMeasureNoiseScale(t *testing.T) {
	// The Laplace mechanism must calibrate noise to sensitivity/ε.
	src := rand.NewPCG(2, 2)
	n := 4
	a := kron.Wrap(mat.Eye(n).Scale(3)) // sensitivity 3
	x := []float64{1, 2, 3, 4}
	eps := 0.5
	const trials = 50000
	var sumsq float64
	for tr := 0; tr < trials; tr++ {
		y := Measure(a, x, eps, 0, src, kron.NewWorkspace())
		for i := range y {
			d := y[i] - 3*x[i]
			sumsq += d * d
		}
	}
	got := sumsq / float64(trials*n)
	want := 2 * math.Pow(3/eps, 2) // 2b²
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("noise variance = %v want %v", got, want)
	}
}

func TestAnswerWorkloadAgainstExplicit(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	dom := schema.Sizes(4, 3)
	w := workload.MustNew(dom,
		workload.NewProduct(workload.Prefix(4), workload.Identity(3)),
		workload.Product{Weight: 2, Terms: []workload.PredicateSet{workload.Total(4), workload.AllRange(3)}},
	)
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64() * 10
	}
	got, err := AnswerWorkload(w, x)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MatVec(nil, w.ExplicitMatrix(), x)
	if len(got) != len(want) {
		t.Fatalf("answer count %d want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("answer[%d] = %v want %v", i, got[i], want[i])
		}
	}
	// Bit for bit, each product's block is the per-product Kronecker sweep.
	var oracle [][]float64
	for _, p := range w.Products {
		oracle = append(oracle, productOracle(t, p, x))
	}
	off := 0
	for pi, o := range oracle {
		for j, v := range o {
			if math.Float64bits(got[off+j]) != math.Float64bits(v) {
				t.Fatalf("product %d answer %d: %v, want %v", pi, j, got[off+j], v)
			}
		}
		off += len(o)
	}
}

func TestRunEndToEndUnbiasedAndCalibrated(t *testing.T) {
	// End-to-end: on a range workload the reconstructed answers must be
	// unbiased and their empirical total squared error must match the
	// closed-form prediction 2/ε²·‖WA⁺‖²_F within sampling error.
	dom := schema.Sizes(16)
	w := workload.MustNew(dom, workload.NewProduct(workload.Prefix(16)))
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(10 + i)
	}
	truth, err := AnswerWorkload(w, x)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0
	sel, err := core.Select(w, core.HDMMOptions{Restarts: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	src := rand.NewPCG(4, 4)
	const trials = 400
	var totalErr float64
	bias := make([]float64, len(truth))
	for tr := 0; tr < trials; tr++ {
		y := Measure(sel.Strategy.Operator(), x, eps, 0, src, kron.NewWorkspace())
		xhat, err := sel.Strategy.Reconstruct(y, kron.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		ans, err := AnswerWorkload(w, xhat)
		if err != nil {
			t.Fatal(err)
		}
		totalErr += TotalSquaredError(ans, truth)
		for i := range ans {
			bias[i] += ans[i] - truth[i]
		}
	}
	meanErr := totalErr / trials
	predicted := 2 * sel.Err / (eps * eps)
	if math.Abs(meanErr-predicted)/predicted > 0.15 {
		t.Fatalf("empirical error %v vs predicted %v", meanErr, predicted)
	}
	for i := range bias {
		if math.Abs(bias[i]/trials) > 3 {
			t.Fatalf("answer %d biased: %v", i, bias[i]/trials)
		}
	}
}

func TestUnionStrategyMeasureReconstruct(t *testing.T) {
	// OPT+ strategies reconstruct via LSMR; verify the full loop is unbiased.
	dom := schema.Sizes(8, 8)
	w := workload.MustNew(dom,
		workload.NewProduct(workload.AllRange(8), workload.Total(8)),
		workload.NewProduct(workload.Total(8), workload.AllRange(8)),
	)
	s, _, err := core.OPTPlus(w, core.OPTKronOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i % 7)
	}
	truth, err := AnswerWorkload(w, x)
	if err != nil {
		t.Fatal(err)
	}
	src := rand.NewPCG(6, 6)
	// With huge ε the noise vanishes and reconstruction must recover the
	// workload answers exactly (the strategy supports the workload).
	y := Measure(s.Operator(), x, 1e9, 0, src, kron.NewWorkspace())
	xhat, err := s.Reconstruct(y, kron.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := AnswerWorkload(w, xhat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(ans[i]-truth[i]) > 1e-3*(1+math.Abs(truth[i])) {
			t.Fatalf("union strategy does not support workload: ans[%d]=%v want %v", i, ans[i], truth[i])
		}
	}
}
