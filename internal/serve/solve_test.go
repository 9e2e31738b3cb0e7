package serve_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	hdmm "repro"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workload"
)

// unionTenant builds a two-part union workload and a registry pre-seeded
// with an OPT⁺ strategy under the exact key NewEngineCtx will look up, so
// engine construction takes the iterative union-reconstruction path. The
// first block's first factor is made numerically rank-deficient on
// purpose: one extra query weighing 1e6 per cell shrinks the identity rows
// to ~1e-6, so the factor's Gram has a condition number past 1e12, the
// pencil preconditioner declines, and the union solves with plain LSMR.
// That solve needs many iterations, so SolveMaxIter=1 reliably binds,
// where the certified refinement converges even under a one-step cap.
func unionTenant(t *testing.T) (*workload.Workload, []float64, hdmm.SelectOptions, *registry.Registry) {
	t.Helper()
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "a", Size: 16},
		hdmm.Attribute{Name: "b", Size: 16},
	)
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.AllRange(16), hdmm.Total(16)),
		hdmm.NewProduct(hdmm.Total(16), hdmm.AllRange(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := core.OPTPlus(w, core.OPTKronOptions{Seed: 5, MaxIter: 15, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	theta := s.Parts[0].Subs[0].Theta.Data()
	for i := range theta {
		theta[i] = 1e6
	}
	errVal, err := s.Error(w)
	if err != nil {
		t.Fatal(err)
	}
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 4}
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(registry.Key(w, sel), &registry.Record{Strategy: s, Err: errVal, Operator: "OPT+"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 22))
	x := make([]float64, dom.Size())
	for i := range x {
		x[i] = float64(rng.IntN(50))
	}
	return w, x, sel, reg
}

// TestEngineUnionSolveInfo: an engine built over a union strategy exposes
// the reconstruction's solver diagnostics, and a closed-form engine
// exposes none.
func TestEngineUnionSolveInfo(t *testing.T) {
	w, x, sel, reg := unionTenant(t)
	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Seed: 7, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.FromCache() {
		t.Fatal("engine did not load the pre-seeded union strategy")
	}
	si := eng.SolveInfo()
	if si == nil {
		t.Fatal("union engine has no SolveInfo")
	}
	if si.Iters <= 0 || si.Stopped == "" {
		t.Fatalf("SolveInfo = %+v, want a recorded iterative solve", si)
	}
	if si.Preconditioned {
		t.Fatal("union reconstruction ran preconditioned, but its pencil should decline")
	}
	if si.Method != core.SolveLSMR {
		t.Fatalf("union with a declined pencil solved by %q, want %q", si.Method, core.SolveLSMR)
	}

	wk, xk := testWorkload(t)
	closed, err := serve.NewEngineCtx(t.Context(), wk, xk, 1.0, serve.Options{Selection: hdmm.SelectOptions{Restarts: 1, Seed: 3}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if closed.SolveInfo() != nil {
		t.Fatalf("closed-form engine reports SolveInfo %+v", closed.SolveInfo())
	}
}

// TestEngineTwoPartUnionRefines: an engine over a two-part union
// reconstructs with the certified refinement, and the one step it needs
// fits a one-step budget.
func TestEngineTwoPartUnionRefines(t *testing.T) {
	w, x, _, _ := unionTenant(t)
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
		Selection:    hdmm.SelectOptions{Restarts: 1, Seed: 4, SkipKron: true, SkipMarg: true},
		Seed:         7,
		Registry:     reg,
		SolveMaxIter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	si := eng.SolveInfo()
	if si == nil || si.Method != core.SolveRefine || si.Iters != 1 || !si.Preconditioned {
		t.Fatalf("SolveInfo = %+v, want one preconditioned refinement step", si)
	}
}

// TestEngineUnionNonConvergence is the headline contract at the serving
// layer: a reconstruction whose iteration budget binds must fail engine
// construction with an error wrapping core.ErrNotConverged — never hand a
// tenant an engine serving answers from an unconverged estimate.
func TestEngineUnionNonConvergence(t *testing.T) {
	w, x, sel, reg := unionTenant(t)
	_, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
		Selection:    sel,
		Seed:         7,
		Registry:     reg,
		SolveMaxIter: 1,
	})
	if !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("err = %v, want core.ErrNotConverged", err)
	}
}
