package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/workload"

	hdmm "repro"
)

// newTestServer builds a server with its own private registry so tests do
// not share cache state (or stats) through the process-wide instance.
func newTestServer(t *testing.T, dir string) (*server.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{CacheDir: dir}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, reg
}

// testRegisterBody is the canonical 2×16 tenant used across tests.
func testRegisterBody(seed uint64, eps float64) map[string]any {
	data := make([]float64, 32)
	for i := range data {
		data[i] = float64((i * 7) % 13)
	}
	return map[string]any{
		"domain":   []int{2, 16},
		"queries":  []string{"I,R", "T,P"},
		"data":     data,
		"eps":      eps,
		"seed":     seed,
		"restarts": 2,
		"opt_seed": 9,
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// getMetricsJSON fetches /metrics in its JSON representation (the endpoint
// defaults to Prometheus text exposition; JSON is behind content
// negotiation).
func getMetricsJSON(t *testing.T, ts *httptest.Server) server.MetricsResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics JSON content type = %q", ct)
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics JSON: %v: %s", err, raw)
	}
	return m
}

func register(t *testing.T, ts *httptest.Server, body any) server.RegisterResponse {
	t.Helper()
	resp, raw := postJSON(t, ts, "/v1/engines", body)
	// 201 for a fresh engine, 200 for an idempotent re-registration.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, raw)
	}
	var reg server.RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Reused != (resp.StatusCode == http.StatusOK) {
		t.Fatalf("register: status %d inconsistent with reused=%v", resp.StatusCode, reg.Reused)
	}
	return reg
}

// TestAnswerMatchesInProcessEngine is the end-to-end byte-identity check:
// a fixed-seed /answer response must equal in-process Engine.AnswerCtx on the
// same registry, bit for bit — HTTP transport, JSON encoding, and the
// engine pool are observationally invisible.
func TestAnswerMatchesInProcessEngine(t *testing.T) {
	srv, reg := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := testRegisterBody(123, 1.0)
	regResp := register(t, ts, body)
	if regResp.Key == "" || regResp.StrategyKey == "" {
		t.Fatalf("registration returned empty keys: %+v", regResp)
	}

	queries := []string{"I,T", "T,I", "I,R"}
	resp, raw := postJSON(t, ts, "/v1/engines/"+regResp.Key+"/answer", map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: status %d: %s", resp.StatusCode, raw)
	}
	var ans server.AnswerResponse
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}

	// In-process reference on the same registry, same seed.
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "A0", Size: 2}, hdmm.Attribute{Name: "A1", Size: 16})
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(16)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.Prefix(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	x := body["data"].([]float64)
	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 2, Seed: 9},
		Seed:      123,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	products := make([]workload.Product, len(queries))
	for i, q := range queries {
		if products[i], err = workload.ParseProduct(q, []int{2, 16}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := eng.AnswerCtx(t.Context(), products)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != len(want) {
		t.Fatalf("got %d answer vectors, want %d", len(ans.Answers), len(want))
	}
	for i := range want {
		if len(ans.Answers[i]) != len(want[i]) {
			t.Fatalf("answer %d has %d values, want %d", i, len(ans.Answers[i]), len(want[i]))
		}
		for j := range want[i] {
			if ans.Answers[i][j] != want[i][j] {
				t.Fatalf("answer[%d][%d] = %v over HTTP, %v in-process", i, j, ans.Answers[i][j], want[i][j])
			}
		}
	}
}

// TestConcurrentRegistrationSingleflight races identical registrations and
// answer batches on one tenant key: the strategy must be optimized exactly
// as many times as one sequential registration (singleflight through the
// pool and the registry), every caller must get the same key, and all
// answers must agree. Run under -race in CI.
func TestConcurrentRegistrationSingleflight(t *testing.T) {
	// Sequential reference: how many restart slots one registration costs.
	{
		srv, _ := newTestServer(t, t.TempDir())
		ts := httptest.NewServer(srv)
		before := core.RestartsPerformed()
		register(t, ts, testRegisterBody(7, 1.0))
		ts.Close()
		seq := core.RestartsPerformed() - before
		if seq == 0 {
			t.Fatal("sequential registration performed no restarts — reference is vacuous")
		}

		srv2, _ := newTestServer(t, t.TempDir())
		ts2 := httptest.NewServer(srv2)
		defer ts2.Close()
		before = core.RestartsPerformed()
		const clients = 8
		keys := make([]string, clients)
		answers := make([]string, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			// t.Fatal-based helpers are off-limits inside goroutines
			// (FailNow must run on the test goroutine); everything here
			// reports with t.Error and returns.
			go func(c int) {
				defer wg.Done()
				body, err := json.Marshal(testRegisterBody(7, 1.0))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts2.URL+"/v1/engines", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: register status %d: %s", c, resp.StatusCode, raw)
					return
				}
				var r server.RegisterResponse
				if err := json.Unmarshal(raw, &r); err != nil {
					t.Error(err)
					return
				}
				keys[c] = r.Key
				ansResp, err := http.Post(ts2.URL+"/v1/engines/"+r.Key+"/answer", "application/json",
					strings.NewReader(`{"queries":["I,T"]}`))
				if err != nil {
					t.Error(err)
					return
				}
				ansRaw, err := io.ReadAll(ansResp.Body)
				ansResp.Body.Close()
				if err != nil || ansResp.StatusCode != http.StatusOK {
					t.Errorf("client %d: answer status %d: %s", c, ansResp.StatusCode, ansRaw)
					return
				}
				answers[c] = string(ansRaw)
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if got := core.RestartsPerformed() - before; got != seq {
			t.Fatalf("concurrent registrations performed %d restarts, want %d (optimize once)", got, seq)
		}
		for c := 1; c < clients; c++ {
			if keys[c] != keys[0] {
				t.Fatalf("client %d got key %s, client 0 got %s", c, keys[c], keys[0])
			}
			if answers[c] != answers[0] {
				t.Fatalf("client %d got different answers", c)
			}
		}
	}
}

// TestStrategySharedAcrossTenants: a second tenant with the same workload
// shape but a different budget gets its own engine (different key) backed
// by the SAME cached strategy — zero additional optimizer restarts, shared
// through the registry. Selection is data-independent, so this leaks
// nothing between tenants.
func TestStrategySharedAcrossTenants(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a := register(t, ts, testRegisterBody(7, 1.0))
	before := core.RestartsPerformed()
	b := register(t, ts, testRegisterBody(8, 0.5))
	if d := core.RestartsPerformed() - before; d != 0 {
		t.Fatalf("second tenant performed %d restarts, want 0 (strategy cached)", d)
	}
	if !b.FromCache {
		t.Fatal("second tenant's strategy not reported as cached")
	}
	if b.Key == a.Key {
		t.Fatal("tenants at different budgets share an engine key")
	}
	if b.StrategyKey != a.StrategyKey {
		t.Fatal("tenants with identical workloads have different strategy keys")
	}

	// Idempotent re-registration: same payload → same engine, Reused=true,
	// and no new measurement (the pool hit bypasses construction entirely).
	again := register(t, ts, testRegisterBody(7, 1.0))
	if !again.Reused || again.Key != a.Key {
		t.Fatalf("re-registration: reused=%v key match=%v", again.Reused, again.Key == a.Key)
	}
}

// TestRegisterFromRecords: the records form builds the same histogram the
// CLI's CSV reader would, and answers work end to end.
func TestRegisterFromRecords(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	records := make([][]int, 0, 40)
	for i := 0; i < 40; i++ {
		records = append(records, []int{i % 2, (i * 7) % 16})
	}
	body := map[string]any{
		"domain": []int{2, 16}, "queries": []string{"I,R"},
		"records": records, "eps": 1.0, "seed": 11, "restarts": 1,
	}
	r := register(t, ts, body)
	resp, raw := postJSON(t, ts, "/v1/engines/"+r.Key+"/answer", map[string]any{"queries": []string{"T,T"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: status %d: %s", resp.StatusCode, raw)
	}
}

// TestGaussianTenant: delta > 0 selects the Gaussian mechanism; ε > 1 with
// delta > 0 must be rejected with 400 (unsound calibration).
func TestGaussianTenant(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := testRegisterBody(3, 0.5)
	body["delta"] = 1e-6
	r := register(t, ts, body)
	info := engineInfo(t, ts, r.Key)
	if info.Delta != 1e-6 || info.Eps != 0.5 {
		t.Fatalf("engine info (ε,δ) = (%v,%v), want (0.5,1e-6)", info.Eps, info.Delta)
	}

	bad := testRegisterBody(3, 1.5)
	bad["delta"] = 1e-6
	resp, raw := postJSON(t, ts, "/v1/engines", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ε=1.5 Gaussian: status %d, want 400: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "eps <= 1") {
		t.Fatalf("rejection does not explain the ε ≤ 1 requirement: %s", raw)
	}
}

// TestGaussianMarginalsRegistrationBounded: a Gaussian registration whose
// selection picks OPT_M finishes in bounded time. Its σ needs the
// strategy's L2 sensitivity twice (measurement and expected_rmse); probed
// one column at a time, that took 42.8 s at these 16,384 cells, and hours
// under the daemon's cell cap. The closed form takes microseconds and the
// whole registration well under a second (0.05 s on a 2-core VM), so the
// bound leaves room for the race detector and a loaded machine.
func TestGaussianMarginalsRegistrationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("selects a strategy over 16,384 cells")
	}
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sizes := []int{4, 4, 4, 4, 4, 4, 4}
	var queries []string
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			spec := []string{"T", "T", "T", "T", "T", "T", "T"}
			spec[i], spec[j] = "I", "I"
			queries = append(queries, strings.Join(spec, ","))
		}
	}
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = float64(i % 5)
	}
	body := map[string]any{
		"domain": sizes, "queries": queries, "data": data,
		"eps": 0.5, "delta": 1e-6, "seed": 5, "restarts": 1, "opt_seed": 3,
	}
	const bound = 10 * time.Second
	start := time.Now()
	r := register(t, ts, body)
	if elapsed := time.Since(start); elapsed > bound {
		t.Fatalf("Gaussian OPT_M registration took %v, bound %v", elapsed, bound)
	}
	if r.Operator != "OPT_M" {
		t.Fatalf("selection picked %s; the check needs OPT_M's operator", r.Operator)
	}
	if math.IsNaN(r.ExpectedRMSE) || r.ExpectedRMSE <= 0 {
		t.Fatalf("expected_rmse = %v", r.ExpectedRMSE)
	}
}

func engineInfo(t *testing.T, ts *httptest.Server, key string) server.EngineInfo {
	t.Helper()
	resp, raw := getJSON(t, ts, "/v1/engines/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engine get: status %d: %s", resp.StatusCode, raw)
	}
	var info server.EngineInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestEngineMetadata: GET /v1/engines/{key} reflects the registration.
func TestEngineMetadata(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	r := register(t, ts, testRegisterBody(5, 1.0))
	info := engineInfo(t, ts, r.Key)
	if info.Key != r.Key || info.StrategyKey != r.StrategyKey || info.Operator != r.Operator {
		t.Fatalf("metadata does not match registration: %+v vs %+v", info, r)
	}
	if info.NumQueries != r.NumQueries || len(info.Domain) != 2 || info.Domain[0] != 2 || info.Domain[1] != 16 {
		t.Fatalf("metadata shape wrong: %+v", info)
	}
	if info.ExpectedRMSE <= 0 {
		t.Fatalf("ExpectedRMSE = %v, want > 0", info.ExpectedRMSE)
	}
}

// TestErrorPaths: malformed requests map to 400, unknown keys to 404, and
// error responses are JSON documents with an "error" field.
func TestErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	r := register(t, ts, testRegisterBody(5, 1.0))

	checkErr := func(name string, resp *http.Response, raw []byte, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, wantCode, raw)
			return
		}
		var doc map[string]string
		if err := json.Unmarshal(raw, &doc); err != nil || doc["error"] == "" {
			t.Errorf("%s: error body is not {\"error\": ...}: %s", name, raw)
		}
	}

	// Registration errors.
	manyProducts := make([]string, server.DefaultMaxWorkloadProducts+1)
	for i := range manyProducts {
		manyProducts[i] = "T"
	}
	for name, body := range map[string]map[string]any{
		"many products": {"domain": []int{4}, "queries": manyProducts, "data": []float64{1, 2, 3, 4}, "eps": 1},
		"many restarts": {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1, 2, 3, 4}, "eps": 1, "restarts": server.DefaultMaxRestarts + 1},
		"empty domain":  {"domain": []int{}, "queries": []string{"I"}, "data": []float64{1}, "eps": 1},
		"bad size":      {"domain": []int{0}, "queries": []string{"I"}, "data": []float64{1}, "eps": 1},
		"no queries":    {"domain": []int{4}, "queries": []string{}, "data": []float64{1, 2, 3, 4}, "eps": 1},
		"bad spec":      {"domain": []int{4}, "queries": []string{"X"}, "data": []float64{1, 2, 3, 4}, "eps": 1},
		"spec arity":    {"domain": []int{2, 16}, "queries": []string{"I"}, "data": make([]float64, 32), "eps": 1},
		"no data":       {"domain": []int{4}, "queries": []string{"I"}, "eps": 1},
		"data length":   {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1}, "eps": 1},
		"both forms":    {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1, 2, 3, 4}, "records": [][]int{{0}}, "eps": 1},
		"record arity":  {"domain": []int{4}, "queries": []string{"I"}, "records": [][]int{{0, 1}}, "eps": 1},
		"record range":  {"domain": []int{4}, "queries": []string{"I"}, "records": [][]int{{9}}, "eps": 1},
		"domain huge":   {"domain": []int{1 << 30}, "queries": []string{"T"}, "records": [][]int{{0}}, "eps": 1},
		"attr huge":     {"domain": []int{200000, 2}, "queries": []string{"R,T"}, "records": [][]int{{0, 0}}, "eps": 1}, // under the cell cap, over the per-attribute cap (selection memory is quadratic in attr size)
		"domain ovfl":   {"domain": []int{1 << 31, 1 << 31, 1 << 31}, "queries": []string{"T,T,T"}, "records": [][]int{{0, 0, 0}}, "eps": 1},
		"eps zero":      {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1, 2, 3, 4}, "eps": 0},
		"delta one":     {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1, 2, 3, 4}, "eps": 1, "delta": 1},
		"neg restarts":  {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1, 2, 3, 4}, "eps": 1, "restarts": -1},
		"unknown field": {"domain": []int{4}, "queries": []string{"I"}, "data": []float64{1, 2, 3, 4}, "eps": 1, "bogus": true},
	} {
		resp, raw := postJSON(t, ts, "/v1/engines", body)
		checkErr("register "+name, resp, raw, http.StatusBadRequest)
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/engines", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkErr("register bad json", resp, raw, http.StatusBadRequest)

	// Unknown engine keys.
	resp2, raw2 := postJSON(t, ts, "/v1/engines/deadbeef/answer", map[string]any{"queries": []string{"I"}})
	checkErr("answer unknown key", resp2, raw2, http.StatusNotFound)
	resp3, raw3 := getJSON(t, ts, "/v1/engines/deadbeef")
	checkErr("get unknown key", resp3, raw3, http.StatusNotFound)

	// Answer-time product errors against a real engine (domain is 2×16).
	bigBatch := make([]string, 0, 8192)
	for i := 0; i < 8192; i++ {
		bigBatch = append(bigBatch, "I,R") // 2·136 rows each ⇒ > 2^20 total
	}
	for name, queries := range map[string][]string{
		"shape":      {"I"},     // one spec, two attributes
		"unknown":    {"Z,R"},   // no such predicate set
		"width":      {"I,W99"}, // width larger than the attribute
		"width sign": {"I,W+8"}, // W8 has one spelling
		"width zero": {"I,W08"},
		"width neg":  {"I,W-3"},
		"width gap":  {"I,W 8"},
		"empty":      {},
		"batch size": bigBatch, // total answer values over MaxAnswerValues
	} {
		resp, raw := postJSON(t, ts, "/v1/engines/"+r.Key+"/answer", map[string]any{"queries": queries})
		checkErr("answer "+name, resp, raw, http.StatusBadRequest)
	}
}

// TestHealthzAndMetrics: liveness always answers, and the metrics document
// reflects traffic — request counts per endpoint, error counts, engine
// count, and the strategy-cache hit ratio.
func TestHealthzAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, raw := getJSON(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}

	// Traffic: one registration (registry miss), one identical registration
	// (pool hit, no registry lookup), one re-registration at a different
	// seed (registry hit), one answered batch, one 404.
	r := register(t, ts, testRegisterBody(5, 1.0))
	register(t, ts, testRegisterBody(5, 1.0))
	register(t, ts, testRegisterBody(6, 1.0))
	postJSON(t, ts, "/v1/engines/"+r.Key+"/answer", map[string]any{"queries": []string{"I,T"}})
	getJSON(t, ts, "/v1/engines/nope")

	m := getMetricsJSON(t, ts)
	if m.Engines != 2 {
		t.Fatalf("metrics engines = %d, want 2", m.Engines)
	}
	if m.StrategyCache.Hits != 1 || m.StrategyCache.Misses != 1 {
		t.Fatalf("strategy cache stats = %+v, want 1 hit / 1 miss", m.StrategyCache)
	}
	if m.StrategyCache.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", m.StrategyCache.HitRatio)
	}
	reg := m.Endpoints["register"]
	if reg.Requests != 3 || reg.Errors != 0 {
		t.Fatalf("register endpoint stats = %+v, want 3 requests / 0 errors", reg)
	}
	if eg := m.Endpoints["engine_get"]; eg.Requests != 1 || eg.Errors != 1 {
		t.Fatalf("engine_get endpoint stats = %+v, want 1 request / 1 error", eg)
	}
	if ans := m.Endpoints["answer"]; ans.Requests != 1 || ans.MeanMs < 0 {
		t.Fatalf("answer endpoint stats = %+v", ans)
	}
}

// TestBodyLimit: a body over MaxBodyBytes is rejected with 413, not read.
func TestBodyLimit(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{MaxBodyBytes: 64}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, raw := postJSON(t, ts, "/v1/engines", testRegisterBody(1, 1.0))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413: %s", resp.StatusCode, raw)
	}
}

// TestAnswerValuesCap: a product's row count multiplies across attributes
// (each factor individually small), so the answer cap must bound the
// multiplied-out total before evaluation — and leave small batches alone.
func TestAnswerValuesCap(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{MaxAnswerValues: 2000}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	r := register(t, ts, testRegisterBody(5, 1.0))

	resp, raw := postJSON(t, ts, "/v1/engines/"+r.Key+"/answer", map[string]any{"queries": []string{"I,R"}}) // 2·136 = 272 rows
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap product: status %d, want 400: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts, "/v1/engines/"+r.Key+"/answer", map[string]any{"queries": []string{"I,T", "T,I"}}) // 2 + 16 rows
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-cap batch: status %d: %s", resp.StatusCode, raw)
	}
	// Repeated specs share one materialized matrix, so the budget charges
	// their cells once: 40 repetitions of "T,I" cost 40 per-product
	// intermediates (32 values each) + ONE set of term matrices
	// (~1538 values total), not 40 sets (~11.6k values).
	repeats := make([]string, 40)
	for i := range repeats {
		repeats[i] = "T,I"
	}
	resp, raw = postJSON(t, ts, "/v1/engines/"+r.Key+"/answer", map[string]any{"queries": repeats})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated-spec batch double-charged for shared matrices: status %d: %s", resp.StatusCode, raw)
	}
}

// TestRestartsCapAppliesToDefault: omitting restarts normalizes to the
// optimizer default (5) inside selection, so a cap configured below that
// must reject the omission too, not just explicit values.
func TestRestartsCapAppliesToDefault(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{MaxRestarts: 2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterCtx(t.Context(), &server.RegisterRequest{
		Domain: []int{4}, Queries: []string{"I"}, Data: []float64{1, 2, 3, 4}, Eps: 1,
	}); err == nil {
		t.Fatal("omitted restarts (default 5) accepted under MaxRestarts=2")
	}
	if _, err := srv.RegisterCtx(t.Context(), &server.RegisterRequest{
		Domain: []int{4}, Queries: []string{"I"}, Data: []float64{1, 2, 3, 4}, Eps: 1, Restarts: 2,
	}); err != nil {
		t.Fatalf("explicit in-cap restarts rejected: %v", err)
	}
}

// TestNonFiniteDataRejected: a NaN/Inf histogram cell (reachable only via
// the programmatic API — standard JSON cannot carry either) must be a
// validation error, not a permanently broken engine in the pool.
func TestNonFiniteDataRejected(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := srv.RegisterCtx(t.Context(), &server.RegisterRequest{
			Domain: []int{2}, Queries: []string{"I"}, Data: []float64{1, bad}, Eps: 1,
		})
		if err == nil {
			t.Errorf("data cell %v accepted", bad)
		}
	}
}

// TestEngineKeysAreNotContentAddresses: the engine key mixes in a
// per-process secret, so the same registration on two servers yields
// different keys — without this, keys would be computable from candidate
// inputs and GET /v1/engines/{key} (200 vs 404) would be a free
// dataset-equality oracle against a victim's private data.
func TestEngineKeysAreNotContentAddresses(t *testing.T) {
	srvA, _ := newTestServer(t, t.TempDir())
	srvB, _ := newTestServer(t, t.TempDir())
	tsA, tsB := httptest.NewServer(srvA), httptest.NewServer(srvB)
	defer tsA.Close()
	defer tsB.Close()

	a := register(t, tsA, testRegisterBody(5, 1.0))
	b := register(t, tsB, testRegisterBody(5, 1.0))
	if a.Key == b.Key {
		t.Fatal("identical registrations on different servers produced equal engine keys (content-addressed private data)")
	}
	// Within one server the key must stay deterministic — that is what
	// makes re-registration idempotent (no second measurement).
	again := register(t, tsA, testRegisterBody(5, 1.0))
	if again.Key != a.Key || !again.Reused {
		t.Fatalf("same-server re-registration not idempotent: %+v vs %+v", again, a)
	}

	// Numerically identical data must hit the same engine even when a
	// client's serializer emits a zero count as -0.0: the sign bit of
	// zero must not fork the key into a second measurement.
	negZero := testRegisterBody(5, 1.0)
	data := make([]float64, 32)
	copy(data, negZero["data"].([]float64))
	for i, v := range data {
		if v == 0 {
			data[i] = math.Copysign(0, -1)
		}
	}
	negZero["data"] = data
	nz := register(t, tsA, negZero)
	if nz.Key != a.Key || !nz.Reused {
		t.Fatal("-0.0 data forked the engine key into a second measurement")
	}
}

// TestEnginePoolCap: registrations beyond MaxEngines get 503 (with the
// already-registered engines unaffected), so hostile or runaway
// registration traffic cannot grow process memory without bound.
func TestEnginePoolCap(t *testing.T) {
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{MaxEngines: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := register(t, ts, testRegisterBody(5, 1.0))
	resp, raw := postJSON(t, ts, "/v1/engines", testRegisterBody(6, 1.0)) // distinct seed = new engine key
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap registration: status %d, want 503: %s", resp.StatusCode, raw)
	}
	// Idempotent re-registration of the existing tenant still works...
	again := register(t, ts, testRegisterBody(5, 1.0))
	if !again.Reused || again.Key != first.Key {
		t.Fatalf("existing tenant rejected at capacity: %+v", again)
	}
	// ...and so does answering.
	resp, raw = postJSON(t, ts, "/v1/engines/"+first.Key+"/answer", map[string]any{"queries": []string{"I,T"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer at capacity: status %d: %s", resp.StatusCode, raw)
	}
}

// TestTrailingDataRejected: only whitespace may follow a request's JSON
// document. A stray ']' or '}' after it, which the Decoder-based check let
// through, is a 400 with the same message as any other trailing data, on
// both request bodies.
func TestTrailingDataRejected(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	r := register(t, ts, testRegisterBody(5, 1.0))
	regBody, err := json.Marshal(testRegisterBody(6, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"register", "/v1/engines", regBody},
		{"answer", "/v1/engines/" + r.Key + "/answer", []byte(`{"queries":["I,T"]}`)},
	} {
		for _, trailer := range []string{" ]", " }", "\n}", "]]", "x", "{}"} {
			body := append(append([]byte(nil), tc.body...), trailer...)
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var doc map[string]string
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &doc) != nil ||
				doc["error"] != "request body has trailing data after the JSON document" {
				t.Errorf("%s body + %q: status %d: %s", tc.name, trailer, resp.StatusCode, raw)
			}
		}
		// Whitespace after the document is fine.
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(append(tc.body, " \r\n\t"...)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Errorf("%s body + whitespace: status %d: %s", tc.name, resp.StatusCode, raw)
		}
	}
}

// TestPublicReexports: the hdmm package re-exports the server construction
// surface (config + constructor), so embedding the daemon needs no internal
// imports.
func TestPublicReexports(t *testing.T) {
	srv, err := hdmm.NewServer(hdmm.ServerConfig{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, raw := getJSON(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz through re-exported server: %d %s", resp.StatusCode, raw)
	}
	var _ *hdmm.Server = srv
}
