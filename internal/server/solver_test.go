package server_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hdmm "repro"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
)

// seedUnionStrategy plants a two-part OPT⁺ strategy in reg under the
// exact key the server derives for unionTenantBody's registration, so the
// daemon's engine construction takes the iterative union-reconstruction
// path. The first block's first factor is made numerically rank-deficient
// on purpose (one extra query weighing 1e6 per cell), so the pencil
// preconditioner declines and the union solves with plain LSMR, which
// needs many iterations: a SolveMaxIter=1 server reliably fails it, where
// the certified refinement would converge even under the cap.
func seedUnionStrategy(t *testing.T, reg *registry.Registry) {
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
	// The fingerprint is structural (sizes + canonical predicate tokens),
	// so this workload keys identically to the one the server builds from
	// the wire specs in unionTenantBody.
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 4}
	if err := reg.Put(registry.Key(w, sel), &registry.Record{Strategy: s, Err: errVal, Operator: "OPT+"}); err != nil {
		t.Fatal(err)
	}
}

// unionTenantBody registers the tenant whose strategy seedUnionStrategy
// planted: same workload structure, same selection options.
func unionTenantBody() map[string]any {
	data := make([]float64, 256)
	for i := range data {
		data[i] = float64((i * 11) % 17)
	}
	return map[string]any{
		"domain":   []int{16, 16},
		"queries":  []string{"R,T", "T,R"},
		"data":     data,
		"eps":      1.0,
		"seed":     7,
		"restarts": 1,
		"opt_seed": 4,
	}
}

// TestUnionSolverObservability: a union-strategy registration surfaces its
// LSMR solve end-to-end — iteration count and residual on the engine's
// metadata document, aggregate counters on /metrics in both JSON and
// Prometheus form, and no double counting on idempotent re-registration.
func TestUnionSolverObservability(t *testing.T) {
	srv, reg := newTestServer(t, t.TempDir())
	seedUnionStrategy(t, reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	regResp := register(t, ts, unionTenantBody())
	if !regResp.FromCache {
		t.Fatal("registration did not load the pre-seeded union strategy")
	}

	info := engineInfo(t, ts, regResp.Key)
	if info.SolverIters <= 0 {
		t.Fatalf("engine info reports %d solver iterations, want > 0", info.SolverIters)
	}
	if info.SolverPreconditioned {
		t.Fatal("engine info says the union solve ran preconditioned, but its pencil should decline")
	}
	if info.SolverMethod != core.SolveLSMR {
		t.Fatalf("engine info reports solver method %q for a union with a declined pencil, want %q", info.SolverMethod, core.SolveLSMR)
	}

	m := getMetricsJSON(t, ts)
	if m.Solver == nil {
		t.Fatal("metrics omit the solver section after a union solve")
	}
	if m.Solver.Solves != 1 || m.Solver.Failures != 0 {
		t.Fatalf("solver counters = %+v, want 1 solve and 0 failures", m.Solver)
	}
	if m.Solver.Iterations != int64(info.SolverIters) {
		t.Fatalf("metrics count %d iterations, engine info says %d", m.Solver.Iterations, info.SolverIters)
	}

	// Idempotent re-registration reuses the engine — no new measurement,
	// no new solve, no counter movement.
	if reused := register(t, ts, unionTenantBody()); !reused.Reused {
		t.Fatal("re-registration built a second engine")
	}
	if m := getMetricsJSON(t, ts); m.Solver.Solves != 1 {
		t.Fatalf("re-registration moved the solve counter to %d", m.Solver.Solves)
	}

	resp, raw := getJSON(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(raw)
	for _, want := range []string{
		"hdmm_union_solves_total 1",
		"hdmm_union_solve_failures_total 0",
		"hdmm_union_solve_iterations_total",
		"hdmm_union_solve_last_residual",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestUnionNonConvergenceIs500: the headline bugfix contract over HTTP — a
// registration whose union solve hits the server's iteration cap must fail
// with a 500 (detail logged server-side, masked on the wire) instead of
// silently serving an unconverged estimate, and the failure must land on
// the /metrics failure counter.
func TestUnionNonConvergenceIs500(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seedUnionStrategy(t, reg)
	srv, err := server.NewWithRegistry(server.Config{CacheDir: dir, SolveMaxIter: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, raw := postJSON(t, ts, "/v1/engines", unionTenantBody())
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("register: status %d, want 500: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "internal server error") {
		t.Fatalf("500 body leaked solver detail: %s", raw)
	}

	m := getMetricsJSON(t, ts)
	if m.Solver == nil || m.Solver.Failures != 1 || m.Solver.Solves != 0 {
		t.Fatalf("solver counters = %+v, want exactly 1 failure", m.Solver)
	}

	// A failed build is not cached: the tenant is not pinned to a broken
	// engine, and the pool has nothing registered under any key.
	if m.Engines != 0 {
		t.Fatalf("pool holds %d engines after a failed registration", m.Engines)
	}
}
