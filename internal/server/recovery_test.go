package server_test

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mech"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// newSnapshotServer builds a server over a MEMORY-ONLY strategy registry
// plus the given snapshot directory — so recovery tests prove the snapshots
// alone carry every bit a restarted daemon needs (no shared disk registry
// quietly doing the work).
func newSnapshotServer(t *testing.T, snapDir string, workers int) *server.Server {
	t.Helper()
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{SnapshotDir: snapDir, Workers: workers}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func answersEqual(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d answer vectors vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: answers[%d] length %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			// Bit-level equality: recovery serves the SAME x̂ bits, not a
			// numerically close recomputation.
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("%s: answers[%d][%d] = %x vs %x", label, i, j,
					math.Float64bits(a[i][j]), math.Float64bits(b[i][j]))
			}
		}
	}
}

// TestRecoveryByteIdentity is the heart of the durability contract: kill a
// daemon after its one measurement, restart over the snapshot directory,
// and the recovered engine must answer BYTE-identically — with zero new
// optimizer restarts and zero new measurements (i.e. zero new privacy
// spend), at any worker count. Re-registering the same tenant against the
// restarted daemon must reuse the recovered engine under the same key.
func TestRecoveryByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(map[int]string{1: "workers=1", 4: "workers=4", 8: "workers=8"}[workers], func(t *testing.T) {
			snapDir := filepath.Join(t.TempDir(), "snaps")
			body := &server.RegisterRequest{
				Domain:   []int{2, 16},
				Queries:  []string{"I,R", "T,P"},
				Data:     testData(32),
				Eps:      1.5,
				Seed:     7,
				Restarts: 2,
				OptSeed:  9,
			}
			queries := &server.AnswerRequest{Queries: []string{"I,T", "T,R"}}

			srv1 := newSnapshotServer(t, snapDir, workers)
			r1, err := srv1.RegisterCtx(t.Context(), body)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Reused {
				t.Fatal("fresh registration reported reused")
			}
			a1, err := srv1.AnswerCtx(t.Context(), r1.Key, queries)
			if err != nil {
				t.Fatal(err)
			}

			// "Kill" srv1 (drop it; the snapshot is already durable) and
			// restart over the same directory with a FRESH memory-only
			// registry. Counter deltas across the restart are the privacy
			// ledger: recovery must not optimize or measure.
			restarts, measurements := core.RestartsPerformed(), mech.MeasurementsTaken()
			srv2 := newSnapshotServer(t, snapDir, workers)
			if d := core.RestartsPerformed() - restarts; d != 0 {
				t.Fatalf("recovery ran %d optimizer restarts", d)
			}
			if d := mech.MeasurementsTaken() - measurements; d != 0 {
				t.Fatalf("recovery took %d measurements", d)
			}
			if srv2.Metrics().Degraded {
				t.Fatal("clean recovery reported degraded")
			}
			if snaps := srv2.Metrics().Snapshots; snaps == nil || snaps.Recovered != 1 {
				t.Fatalf("snapshot stats after recovery = %+v", srv2.Metrics().Snapshots)
			}

			a2, err := srv2.AnswerCtx(t.Context(), r1.Key, queries)
			if err != nil {
				t.Fatalf("recovered engine did not answer under the original key: %v", err)
			}
			answersEqual(t, "restart", a1.Answers, a2.Answers)

			// Idempotent re-registration: the persisted key-derivation
			// secret must make the restarted daemon derive the SAME key and
			// reuse the recovered engine instead of measuring again.
			r2, err := srv2.RegisterCtx(t.Context(), body)
			if err != nil {
				t.Fatal(err)
			}
			if !r2.Reused || r2.Key != r1.Key {
				t.Fatalf("re-registration: reused=%v key match=%v", r2.Reused, r2.Key == r1.Key)
			}
			if d := mech.MeasurementsTaken() - measurements; d != 0 {
				t.Fatalf("re-registration took %d measurements", d)
			}
		})
	}
}

// TestRegisterKeepsNoRequestData: the daemon serves from x̂ alone, so a
// caller that reuses its request's data slice after RegisterCtx returns
// changes neither the engine's answers nor its snapshot.
func TestRegisterKeepsNoRequestData(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	srv := newSnapshotServer(t, snapDir, 2)
	req := &server.RegisterRequest{
		Domain: []int{2, 16}, Queries: []string{"I,R", "T,P"}, Data: testData(32),
		Eps: 1.0, Seed: 5, Restarts: 2, OptSeed: 9,
	}
	reg, err := srv.RegisterCtx(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	queries := &server.AnswerRequest{Queries: []string{"I,T", "T,R", "I,P"}}
	before, err := srv.AnswerCtx(t.Context(), reg.Key, queries)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(snapDir, reg.Key+snapshot.FileExt)
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	for i := range req.Data {
		req.Data[i] = 1e9 + float64(i)
	}
	after, err := srv.AnswerCtx(t.Context(), reg.Key, queries)
	if err != nil {
		t.Fatal(err)
	}
	answersEqual(t, "after the data changed", after.Answers, before.Answers)
	recovered, err := newSnapshotServer(t, snapDir, 2).AnswerCtx(t.Context(), reg.Key, queries)
	if err != nil {
		t.Fatal(err)
	}
	answersEqual(t, "recovered", recovered.Answers, before.Answers)
	if now, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(now, blob) {
		t.Fatalf("snapshot bytes changed after the data changed (err %v)", err)
	}
}

func testData(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64((i * 7) % 13)
	}
	return data
}

// TestRecoveryQuarantinesCorruptSnapshot: a flipped byte in one snapshot
// must not stop the healthy one from recovering, must never be loaded, and
// must surface as degraded + quarantined — with zero new measurements (the
// daemon never "heals" a snapshot by re-measuring).
func TestRecoveryQuarantinesCorruptSnapshot(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	srv1 := newSnapshotServer(t, snapDir, 2)
	good, err := srv1.RegisterCtx(t.Context(), &server.RegisterRequest{
		Domain: []int{2, 16}, Queries: []string{"I,R"}, Data: testData(32),
		Eps: 1.0, Seed: 3, Restarts: 2, OptSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := srv1.RegisterCtx(t.Context(), &server.RegisterRequest{
		Domain: []int{6}, Queries: []string{"T"}, Data: testData(6),
		Eps: 1.0, Seed: 4, Restarts: 2, OptSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}

	badPath := filepath.Join(snapDir, bad.Key+snapshot.FileExt)
	blob, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(badPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	measurements := mech.MeasurementsTaken()
	srv2 := newSnapshotServer(t, snapDir, 2)
	if d := mech.MeasurementsTaken() - measurements; d != 0 {
		t.Fatalf("recovery over a corrupt snapshot took %d measurements", d)
	}
	m := srv2.Metrics()
	if !m.Degraded || m.Snapshots == nil || m.Snapshots.Recovered != 1 || m.Snapshots.Quarantined != 1 {
		t.Fatalf("metrics after corrupt recovery = degraded=%v snapshots=%+v", m.Degraded, m.Snapshots)
	}
	if _, err := srv2.AnswerCtx(t.Context(), good.Key, &server.AnswerRequest{Queries: []string{"I,T"}}); err != nil {
		t.Fatalf("healthy engine lost alongside the corrupt one: %v", err)
	}
	if _, err := srv2.AnswerCtx(t.Context(), bad.Key, &server.AnswerRequest{Queries: []string{"T"}}); err == nil {
		t.Fatal("corrupt snapshot was served")
	}
	// Quarantined, not deleted: the bytes are preserved for forensics.
	qBlob, err := os.ReadFile(filepath.Join(snapDir, "quarantine", bad.Key+snapshot.FileExt))
	if err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if !bytes.Equal(qBlob, blob) {
		t.Fatal("quarantine altered the corrupt bytes")
	}

	// The degraded flag rides on /healthz without failing liveness.
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"ok"`) || !strings.Contains(string(raw), `"degraded":true`) {
		t.Fatalf("healthz in degraded mode: %d %s", resp.StatusCode, raw)
	}
}

// TestSnapshotDirUnavailable: a snapshot path that cannot be a directory
// must not stop the daemon — it serves from memory with the degraded flag
// raised, and registrations still work.
func TestSnapshotDirUnavailable(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newSnapshotServer(t, filepath.Join(blocker, "snaps"), 2)
	m := srv.Metrics()
	if !m.Degraded {
		t.Fatal("unreachable snapshot dir did not degrade")
	}
	if m.Snapshots != nil {
		t.Fatalf("snapshot stats without a store = %+v", m.Snapshots)
	}
	r, err := srv.RegisterCtx(t.Context(), &server.RegisterRequest{
		Domain: []int{6}, Queries: []string{"T"}, Data: testData(6),
		Eps: 1.0, Seed: 3, Restarts: 2, OptSeed: 9,
	})
	if err != nil {
		t.Fatalf("degraded daemon refused a registration: %v", err)
	}
	if _, err := srv.AnswerCtx(t.Context(), r.Key, &server.AnswerRequest{Queries: []string{"T"}}); err != nil {
		t.Fatalf("degraded daemon refused to answer: %v", err)
	}
}

// TestMetricsPrometheusExposition: /metrics defaults to Prometheus text
// exposition 0.0.4 with deterministic (sorted) endpoint labels; JSON stays
// behind content negotiation.
func TestMetricsPrometheusExposition(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	srv := newSnapshotServer(t, snapDir, 2)
	if _, err := srv.RegisterCtx(t.Context(), &server.RegisterRequest{
		Domain: []int{6}, Queries: []string{"T"}, Data: testData(6),
		Eps: 1.0, Seed: 3, Restarts: 2, OptSeed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("prometheus content type = %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE hdmm_engines gauge\nhdmm_engines 1\n",
		"# TYPE hdmm_strategy_cache_misses_total counter\nhdmm_strategy_cache_misses_total 1\n",
		`hdmm_endpoint_requests_total{endpoint="healthz"} 1`,
		"# TYPE hdmm_snapshot_writes_total counter\nhdmm_snapshot_writes_total 1\n",
		"hdmm_snapshot_quarantined_total 0\n",
		"# TYPE hdmm_degraded gauge\nhdmm_degraded 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// Deterministic ordering: successive scrapes list endpoint labels in the
	// same (sorted) order. The first scrape predates its own observation, so
	// compare the second and third, which both carry the full endpoint set.
	var scrapes [2]string
	for i := range scrapes {
		resp2, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw2, _ := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		scrapes[i] = string(raw2)
	}
	i1 := strings.Index(scrapes[0], "hdmm_endpoint_requests_total{")
	i2 := strings.Index(scrapes[1], "hdmm_endpoint_requests_total{")
	block := func(s string, i int) string {
		rest := s[i:]
		if j := strings.Index(rest, "# HELP hdmm_endpoint_errors_total"); j >= 0 {
			return rest[:j]
		}
		return rest
	}
	b1, b2 := block(scrapes[0], i1), block(scrapes[1], i2)
	// The metrics scrape itself increments the metrics endpoint counter;
	// mask the counts and compare label ordering.
	strip := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		for i, l := range lines {
			if j := strings.LastIndex(l, " "); j >= 0 {
				lines[i] = l[:j]
			}
		}
		return strings.Join(lines, "\n")
	}
	if strip(b1) != strip(b2) {
		t.Fatalf("endpoint label order not deterministic:\n%s\nvs\n%s", b1, b2)
	}
}
