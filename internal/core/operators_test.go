package core

import (
	"math"
	"testing"

	"repro/internal/census"
	"repro/internal/optimize"
	"repro/internal/schema"
	"repro/internal/workload"
)

func TestOPTKronSingleProduct(t *testing.T) {
	dom := schema.Sizes(32, 16)
	w := workload.MustNew(dom, workload.NewProduct(workload.AllRange(32), workload.AllRange(16)))
	s, e, err := OPTKron(w, OPTKronOptions{Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 5: reported error must equal the product of per-factor traces.
	check, err := s.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check-e) > 1e-6*(1+e) {
		t.Fatalf("reported %v != recomputed %v", e, check)
	}
	// Must beat Identity.
	if id := w.GramTrace(); e >= id {
		t.Fatalf("OPT⊗ error %v not better than Identity %v", e, id)
	}
}

func TestOPTKronUnionWorkload(t *testing.T) {
	// Union of two products sharing a range-heavy first attribute: the
	// block-cyclic solver must find real gains there.
	dom := schema.Sizes(32, 8)
	w := workload.MustNew(dom,
		workload.NewProduct(workload.AllRange(32), workload.Total(8)),
		workload.NewProduct(workload.AllRange(32), workload.Identity(8)),
	)
	s, e, err := OPTKron(w, OPTKronOptions{Seed: 3, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	check, _ := s.Error(w)
	if math.Abs(check-e) > 1e-6*(1+e) {
		t.Fatalf("reported %v != recomputed %v", e, check)
	}
	if id := w.GramTrace(); e >= id {
		t.Fatalf("OPT⊗ union error %v not better than Identity %v", e, id)
	}
}

func TestDefaultPConvention(t *testing.T) {
	dom := schema.Sizes(64, 32, 8)
	w := workload.MustNew(dom,
		workload.NewProduct(workload.AllRange(64), workload.Identity(32), workload.Total(8)),
		workload.NewProduct(workload.Prefix(64), workload.Total(32), workload.Identity(8)),
	)
	p := DefaultP(w)
	if p[0] != 4 { // 64/16; non-trivial predicate sets
		t.Fatalf("p[0] = %d want 4", p[0])
	}
	if p[1] != 1 || p[2] != 1 { // all terms in T ∪ I
		t.Fatalf("p[1,2] = %d,%d want 1,1", p[1], p[2])
	}
}

// TestDefaultGroups: the g function splits by the pattern of non-Total
// attributes and merges down to two groups, and OPT⁺ declines a workload
// whose products share one pattern instead of building a one-part union.
func TestDefaultGroups(t *testing.T) {
	cph := census.CPHDomain(false).AttrSizes()
	for _, tc := range []struct {
		name  string
		sizes []int
		specs []string
		want  int
	}{
		{"R⊗T, T⊗R", []int{8, 8}, []string{"R,T", "T,R"}, 2},
		{"CPH twelve products", cph, []string{
			"T,T,T,T,T", "I,T,T,T,T", "T,I,T,T,T", "T,T,I,T,T",
			"T,T,T,I,T", "T,T,T,T,I", "T,I,T,T,P", "I,I,T,T,T",
			"T,T,I,I,T", "I,T,T,T,R", "T,I,T,I,T", "T,T,T,I,W5",
		}, 2},
		{"R⊗R, I⊗P", []int{32, 32}, []string{"R,R", "I,P"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := specWorkload(t, tc.sizes, tc.specs...)
			groups := DefaultGroups(w)
			if len(groups) != tc.want {
				t.Fatalf("groups = %v, want %d groups", groups, tc.want)
			}
			seen := make([]int, len(w.Products))
			for _, g := range groups {
				for _, j := range g {
					seen[j]++
				}
			}
			for j, n := range seen {
				if n != 1 {
					t.Fatalf("product %d is in %d groups: %v", j, n, groups)
				}
			}
			if tc.want == 1 {
				if s, _, err := OPTPlus(w, OPTKronOptions{Seed: 1, Restarts: 1}); err == nil {
					t.Fatalf("OPT+ built a %d-part union on one group", len(s.Parts))
				}
			}
		})
	}
}

// TestSelectNeverOneGroupOPTPlus: on a one-group workload, where a one-part
// "OPT+" used to win some seeds as an OPT⊗ restart under another name,
// Select never returns an OPT⁺ strategy.
func TestSelectNeverOneGroupOPTPlus(t *testing.T) {
	w := specWorkload(t, []int{32, 32}, "R,R", "I,P")
	for seed := uint64(1); seed <= 8; seed++ {
		sel, err := Select(w, HDMMOptions{Restarts: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Operator == "OPT+" {
			t.Fatalf("seed %d: Select returned an OPT+ strategy on a one-group workload", seed)
		}
	}
}

// specWorkload builds a workload from product specs over the given sizes.
func specWorkload(t *testing.T, sizes []int, specs ...string) *workload.Workload {
	t.Helper()
	ps, err := workload.ParseProducts(specs, sizes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(schema.Sizes(sizes...), ps...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOPTPlusBeatsSingleProductOnDisjointUnion(t *testing.T) {
	// W = (R×T) ∪ (T×R): Section 6.2 motivates OPT+ exactly here, where a
	// single product forces a suboptimal pairing.
	n := 16
	dom := schema.Sizes(n, n)
	w := workload.MustNew(dom,
		workload.NewProduct(workload.AllRange(n), workload.Total(n)),
		workload.NewProduct(workload.Total(n), workload.AllRange(n)),
	)
	_, eKron, err := OPTKron(w, OPTKronOptions{Seed: 5, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	sPlus, ePlus, err := OPTPlus(w, OPTKronOptions{Seed: 5, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	check, err := sPlus.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check-ePlus) > 1e-6*(1+ePlus) {
		t.Fatalf("OPT+ reported %v != recomputed %v", ePlus, check)
	}
	if ePlus >= eKron {
		t.Fatalf("OPT+ (%v) should beat OPT⊗ (%v) on (R×T)∪(T×R)", ePlus, eKron)
	}
}

func TestOPTMargGradient(t *testing.T) {
	dom := schema.Sizes(3, 4, 2)
	w := workload.KWayMarginals(dom, 2)
	space := newSpaceAlias(dom)
	tvec := marginalTVector(space, w)
	_ = tvec
	// Build the same objective OPTMarg uses and finite-difference it.
	m := space.NumSubsets()
	obj := func(x, grad []float64) float64 {
		sumTheta := 0.0
		u := make([]float64, m)
		for a, th := range x {
			sumTheta += th
			u[a] = th * th
		}
		v, err := space.SolveX(u, eFull(space))
		if err != nil {
			return math.Inf(1)
		}
		f := 0.0
		for a := range v {
			f += tvec[a] * v[a]
		}
		val := sumTheta * sumTheta * f
		if grad != nil {
			lam, _ := space.SolveXT(u, tvec)
			for a := 0; a < m; a++ {
				dfdua := 0.0
				for b := 0; b < m; b++ {
					dfdua -= lam[a&b] * space.GBar(a|b) * v[b]
				}
				grad[a] = 2*sumTheta*f + sumTheta*sumTheta*2*x[a]*dfdua
			}
		}
		return val
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = 0.1 + 0.05*float64(i)
	}
	if rel := optimize.CheckGradient(obj, x, 1e-6); rel > 1e-4 {
		t.Fatalf("OPT_M gradient relative error %v", rel)
	}
}

func TestOPTMargMatchesWorkload(t *testing.T) {
	// 4 attributes of size 10: aggregation makes weighted-marginals
	// strategies clearly better than Identity on low-order marginals
	// (the Table 5 regime).
	dom := schema.Sizes(10, 10, 10, 10)
	w := workload.UpToKWayMarginals(dom, 2)
	s, e, err := OPTMarg(w, OPTMargOptions{Seed: 2, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	check, err := s.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check-e) > 1e-4*(1+e) {
		t.Fatalf("OPT_M reported %v != strategy error %v", e, check)
	}
	// Must beat Identity in this regime.
	if id := w.GramTrace(); e >= id*0.9 {
		t.Fatalf("OPT_M error %v not clearly better than Identity %v", e, id)
	}
}

func TestOPTMargBeatsKronOnMarginals(t *testing.T) {
	// On marginals workloads OPT_M should be at least as good as OPT⊗
	// (Section 6.3: "especially effective for marginal workloads").
	dom := schema.Sizes(8, 8, 8)
	w := workload.KWayMarginals(dom, 2)
	_, eKron, err := OPTKron(w, OPTKronOptions{Seed: 7, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, eMarg, err := OPTMarg(w, OPTMargOptions{Seed: 7, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eMarg > eKron*1.05 {
		t.Fatalf("OPT_M (%v) much worse than OPT⊗ (%v) on marginals", eMarg, eKron)
	}
}

func TestSelectPicksBestOperator(t *testing.T) {
	dom := schema.Sizes(6, 5, 4)
	w := workload.KWayMarginals(dom, 1)
	sel, err := Select(w, HDMMOptions{Restarts: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Err > w.GramTrace() {
		t.Fatalf("Select error %v worse than Identity %v", sel.Err, w.GramTrace())
	}
	// The reported error must match the selected strategy.
	check, err := sel.Strategy.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check-sel.Err) > 1e-5*(1+sel.Err) {
		t.Fatalf("Select reported %v but strategy has %v (op %s)", sel.Err, check, sel.Operator)
	}
}

func TestSelectOnRangeWorkload(t *testing.T) {
	dom := schema.Sizes(32)
	w := workload.MustNew(dom, workload.NewProduct(workload.AllRange(32)))
	sel, err := Select(w, HDMMOptions{Restarts: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := w.GramTrace()
	if sel.Err >= id {
		t.Fatalf("HDMM %v not better than Identity %v on ranges", sel.Err, id)
	}
}
