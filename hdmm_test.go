package hdmm_test

import (
	"fmt"
	"math"
	"testing"

	hdmm "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "sex", Size: 2},
		hdmm.Attribute{Name: "age", Size: 32},
	)
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(32)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.Prefix(32)),
	)
	if err != nil {
		t.Fatal(err)
	}
	records := [][]int{{0, 3}, {1, 10}, {0, 3}, {1, 31}, {0, 17}}
	x := dom.DataVector(records)
	res, err := hdmm.Run(w, x, 1.0, hdmm.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Xhat) != 64 {
		t.Fatalf("xhat %d", len(res.Xhat))
	}
	if len(res.Answers) != w.NumQueries() {
		t.Fatalf("answers %d want %d", len(res.Answers), w.NumQueries())
	}
	if res.ExpectedRMSE <= 0 {
		t.Fatal("RMSE should be positive")
	}
	// Deterministic with a fixed seed.
	res2, err := hdmm.Run(w, x, 1.0, hdmm.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Answers {
		if res.Answers[i] != res2.Answers[i] {
			t.Fatal("seeded runs differ")
		}
	}
}

func TestSelectAndExpectedError(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 64})
	w, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.AllRange(64)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := hdmm.Select(w, hdmm.SelectOptions{Restarts: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := hdmm.ExpectedError(w, sel.Strategy, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := hdmm.ExpectedError(w, sel.Strategy, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	// Error scales as 1/ε².
	if math.Abs(e1/e2-4) > 1e-9 {
		t.Fatalf("ε scaling wrong: %v", e1/e2)
	}
}

func TestMarginalBuildersExported(t *testing.T) {
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "a", Size: 3},
		hdmm.Attribute{Name: "b", Size: 4},
	)
	w := hdmm.AllMarginals(dom)
	if len(w.Products) != 4 {
		t.Fatalf("products %d", len(w.Products))
	}
}

func TestRatio(t *testing.T) {
	if hdmm.Ratio(4, 1) != 2 {
		t.Fatal("Ratio wrong")
	}
}

func TestRunRejectsBadEps(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 4})
	w, _ := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.Identity(4)))
	if _, err := hdmm.Run(w, make([]float64, 4), 0, hdmm.Options{}); err == nil {
		t.Fatal("expected error for eps=0")
	}
}

// TestRunRejectsWrongDataLength: a data vector that does not match the
// domain is an error from both one-shot entry points, never a panic inside
// the measurement.
func TestRunRejectsWrongDataLength(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 8})
	w, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.Prefix(8)))
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func(x []float64) (*hdmm.Result, error)
	}{
		{"Run", func(x []float64) (*hdmm.Result, error) {
			return hdmm.Run(w, x, 1.0, hdmm.Options{Seed: 4})
		}},
		{"RunGaussian", func(x []float64) (*hdmm.Result, error) {
			return hdmm.RunGaussian(w, x, 1.0, 1e-6, hdmm.Options{Seed: 4})
		}},
	}
	for _, r := range runs {
		for _, n := range []int{7, 9} {
			t.Run(fmt.Sprintf("%s/len=%d", r.name, n), func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				if _, err := r.run(make([]float64, n)); err == nil {
					t.Fatalf("data vector of length %d over an 8-cell domain: no error", n)
				}
			})
		}
	}
}

func TestRunGaussian(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 16})
	w, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.Prefix(16)))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	res, err := hdmm.RunGaussian(w, x, 1.0, 1e-6, hdmm.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 16 || res.ExpectedRMSE <= 0 {
		t.Fatalf("bad result: %d answers, RMSE %v", len(res.Answers), res.ExpectedRMSE)
	}
	if _, err := hdmm.RunGaussian(w, x, 1.0, 0, hdmm.Options{}); err == nil {
		t.Fatal("expected error for delta=0")
	}
	// The classic Gaussian calibration is unsound for ε > 1: it must be
	// rejected, not served under-protected.
	if _, err := hdmm.RunGaussian(w, x, 1.5, 1e-6, hdmm.Options{Seed: 4}); err == nil {
		t.Fatal("expected error for eps > 1 under the Gaussian mechanism")
	}
}

// TestSeedZeroDrawsFreshEntropy: the documented production path (Seed 0,
// no explicit Rand) must release independent noise per run — before the
// fix it silently meant PCG(0, stream), i.e. identical noise every run.
func TestSeedZeroDrawsFreshEntropy(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 8})
	w, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.Identity(8)))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 2}
	a, err := hdmm.Run(w, x, 1.0, hdmm.Options{Selection: sel})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hdmm.Run(w, x, 1.0, hdmm.Options{Selection: sel})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two Seed-0 runs released identical noise")
	}
}

func TestWeightForRelativeError(t *testing.T) {
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "v", Size: 8})
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Identity(8)), // support 1 per query
		hdmm.NewProduct(hdmm.Total(8)),    // support 8
	)
	if err != nil {
		t.Fatal(err)
	}
	rw := hdmm.WeightForRelativeError(w)
	// Identity queries keep weight 1; the total query is down-weighted 8×.
	if rw.Products[0].Weight != 1 || rw.Products[1].Weight != 1.0/8 {
		t.Fatalf("weights = %v, %v", rw.Products[0].Weight, rw.Products[1].Weight)
	}
}
