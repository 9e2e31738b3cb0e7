package hdmm_test

import (
	"math"
	"math/rand/v2"
	"testing"

	hdmm "repro"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kron"
	"repro/internal/mech"
)

// TestSF1EndToEnd exercises the paper's motivating use case: strategy
// selection on the 4151-query SF1 workload over the 500,480-cell CPH domain
// and a full private release.
func TestSF1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("SF1 selection takes a few seconds")
	}
	w := census.SF1()
	sel, err := core.Select(w, core.HDMMOptions{Restarts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Err >= w.GramTrace() {
		t.Fatalf("HDMM (%v) did not beat Identity (%v) on SF1", sel.Err, w.GramTrace())
	}
	// Full pipeline at moderate ε; empirical error must match prediction
	// within Monte-Carlo slack (a single trial: within ~5× is a strong
	// sanity check against calibration bugs).
	data := dataset.CPHLike(100000, false, 3)
	x := data.Vector()
	src := rand.NewPCG(5, 6)
	ws := kron.NewWorkspace()
	y := mech.Measure(sel.Strategy.Operator(), x, 1.0, 0, src, ws)
	xhat, err := sel.Strategy.Reconstruct(y, ws)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := mech.AnswerWorkload(w, x)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := mech.AnswerWorkload(w, xhat)
	if err != nil {
		t.Fatal(err)
	}
	emp := mech.TotalSquaredError(ans, truth)
	pred := 2 * sel.Err
	if emp > 5*pred || emp < pred/5 {
		t.Fatalf("empirical error %v wildly off predicted %v", emp, pred)
	}
}

// TestEpsilonScalingEmpirical verifies the 1/ε² error scaling of the whole
// pipeline empirically.
func TestEpsilonScalingEmpirical(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 32})
	w, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.Prefix(32)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := hdmm.Select(w, hdmm.SelectOptions{Restarts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i * 3)
	}
	truth, err := hdmm.AnswerWorkload(w, x)
	if err != nil {
		t.Fatal(err)
	}
	meanErr := func(eps float64, seed uint64) float64 {
		src := rand.NewPCG(seed, 1)
		ws := kron.NewWorkspace()
		total := 0.0
		const trials = 300
		for tr := 0; tr < trials; tr++ {
			y := mech.Measure(sel.Strategy.Operator(), x, eps, 0, src, ws)
			xhat, err := sel.Strategy.Reconstruct(y, ws)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := hdmm.AnswerWorkload(w, xhat)
			if err != nil {
				t.Fatal(err)
			}
			total += mech.TotalSquaredError(ans, truth)
		}
		return total / trials
	}
	e1 := meanErr(1, 7)
	e2 := meanErr(2, 8)
	if r := e1 / e2; math.Abs(r-4) > 1.0 {
		t.Fatalf("error ratio at ε=1 vs ε=2 is %v, want ≈4", r)
	}
}

// TestWorkloadQuadraticErrorMatchesDirect cross-checks the implicit
// quadratic-form scoring against direct query enumeration.
func TestWorkloadQuadraticErrorMatchesDirect(t *testing.T) {
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "a", Size: 6},
		hdmm.Attribute{Name: "b", Size: 5},
	)
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.AllRange(6), hdmm.Identity(5)),
		hdmm.NewProduct(hdmm.Prefix(6), hdmm.Total(5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	diff := make([]float64, 30)
	for i := range diff {
		diff[i] = rng.NormFloat64()
	}
	got := mech.WorkloadQuadraticError(w, diff)
	zero := make([]float64, 30)
	a0, err := hdmm.AnswerWorkload(w, zero)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := hdmm.AnswerWorkload(w, diff)
	if err != nil {
		t.Fatal(err)
	}
	want := mech.TotalSquaredError(a1, a0)
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("quadratic form %v, direct %v", got, want)
	}
}

// TestSelectAcrossOperatorFamilies checks that Select picks sensible
// operators for workloads with clear winners.
func TestSelectAcrossOperatorFamilies(t *testing.T) {
	// Marginals workload with big attributes → OPT_M (or at least its
	// error level).
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "a", Size: 12},
		hdmm.Attribute{Name: "b", Size: 12},
		hdmm.Attribute{Name: "c", Size: 12},
		hdmm.Attribute{Name: "d", Size: 12},
	)
	wm := hdmm.UpToKWayMarginals(dom, 2)
	sel, err := hdmm.Select(wm, hdmm.SelectOptions{Restarts: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Err >= wm.GramTrace() {
		t.Fatal("select did not beat identity on marginals")
	}
	// Disjoint union of range workloads → OPT+ should win over OPT⊗.
	dom2 := hdmm.NewDomain(
		hdmm.Attribute{Name: "x", Size: 16},
		hdmm.Attribute{Name: "y", Size: 16},
	)
	wu, err := hdmm.NewWorkload(dom2,
		hdmm.NewProduct(hdmm.AllRange(16), hdmm.Total(16)),
		hdmm.NewProduct(hdmm.Total(16), hdmm.AllRange(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sel2, err := hdmm.Select(wu, hdmm.SelectOptions{Restarts: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sel2.Operator != "OPT+" {
		t.Logf("note: winner is %s (OPT+ expected for disjoint unions)", sel2.Operator)
	}
	if sel2.Err >= wu.GramTrace() {
		t.Fatal("select did not beat identity on the union workload")
	}
}
