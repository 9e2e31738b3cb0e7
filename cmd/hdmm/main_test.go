package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hdmm "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// writeTestData writes a small (sex, age∈[0,16)) CSV dataset.
func writeTestData(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i%2, (i*7)%16)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// expectedServeOutput runs the same pipeline in-process through the public
// API and formats the answers exactly as the CLI does.
func expectedServeOutput(t *testing.T, seed uint64) string {
	t.Helper()
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "A0", Size: 2}, hdmm.Attribute{Name: "A1", Size: 16})
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(16)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.Prefix(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	var records [][]int
	for i := 0; i < 40; i++ {
		records = append(records, []int{i % 2, (i * 7) % 16})
	}
	x := dom.DataVector(records)
	res, err := hdmm.Run(w, x, 1.0, hdmm.Options{
		Seed:      seed,
		Selection: hdmm.SelectOptions{Restarts: 2, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, a := range res.Answers {
		fmt.Fprintf(&out, "%.3f\n", a)
	}
	return out.String()
}

// TestOptimizeThenServe is the acceptance test of the optimize→cache→serve
// lifecycle: a strategy optimized by `hdmm optimize` is loaded — not
// re-optimized — by a later `hdmm serve` over the same cache directory
// (zero optimizer restarts during serve), and the served answers are
// byte-identical to a direct in-process mechanism run with the same seed.
func TestOptimizeThenServe(t *testing.T) {
	data := writeTestData(t)
	cache := t.TempDir()
	workloadArgs := []string{"-domain", "2,16", "-query", "I,R", "-query", "T,P"}

	var optOut, optErr bytes.Buffer
	optArgs := append([]string{"-cache", cache, "-restarts", "2", "-optseed", "9"}, workloadArgs...)
	if err := cmdOptimize(optArgs, &optOut, &optErr); err != nil {
		t.Fatalf("optimize: %v\n%s", err, optErr.String())
	}
	key := strings.TrimSpace(optOut.String())
	if key == "" {
		t.Fatal("optimize printed no key")
	}
	if _, err := os.Stat(filepath.Join(cache, key+".strat")); err != nil {
		t.Fatalf("optimize did not persist the strategy: %v", err)
	}

	serveArgs := append([]string{"-cache", cache, "-restarts", "2", "-optseed", "9", "-eps", "1", "-seed", "123"}, workloadArgs...)
	serveArgs = append(serveArgs, data)
	var srvOut, srvErr bytes.Buffer
	before := core.RestartsPerformed()
	if err := cmdServe(serveArgs, &srvOut, &srvErr); err != nil {
		t.Fatalf("serve: %v\n%s", err, srvErr.String())
	}
	if d := core.RestartsPerformed() - before; d != 0 {
		t.Fatalf("serve performed %d optimizer restarts, want 0 (strategy was cached)", d)
	}
	if !strings.Contains(srvErr.String(), "(cache)") {
		t.Fatalf("serve did not report a cache hit: %s", srvErr.String())
	}
	if got, want := srvOut.String(), expectedServeOutput(t, 123); got != want {
		t.Fatalf("served answers differ from direct in-process run\n got: %q\nwant: %q",
			firstLines(got, 3), firstLines(want, 3))
	}
}

// TestServeQueryFile: -queries answers ad-hoc products from a file against
// the cached measurement instead of the workload itself.
func TestServeQueryFile(t *testing.T) {
	data := writeTestData(t)
	qf := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(qf, []byte("# total count per sex\nI,T\nT,I\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-domain", "2,16", "-query", "I,R", "-restarts", "1", "-seed", "5", "-queries", qf, data}
	var out, errb bytes.Buffer
	if err := cmdServe(args, &out, &errb); err != nil {
		t.Fatalf("serve -queries: %v\n%s", err, errb.String())
	}
	// I,T has 2 answers, T,I has 16: one line each.
	if got := strings.Count(out.String(), "\n"); got != 18 {
		t.Fatalf("serve -queries printed %d answers, want 18", got)
	}
}

// TestLegacyRun: the original flag-only invocation still works.
func TestLegacyRun(t *testing.T) {
	data := writeTestData(t)
	args := []string{"-domain", "2,16", "-query", "I,R", "-query", "T,P", "-restarts", "2", "-seed", "123", data}
	var out, errb bytes.Buffer
	if err := cmdRun(args, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "strategy:") {
		t.Fatalf("missing strategy diagnostics: %s", errb.String())
	}
	want := expectedServeOutput(t, 123)
	// The legacy mode uses selection seed 0, not 9, so only check shape.
	if strings.Count(out.String(), "\n") != strings.Count(want, "\n") {
		t.Fatalf("legacy run printed %d answers, want %d",
			strings.Count(out.String(), "\n"), strings.Count(want, "\n"))
	}
}

// TestUsageErrors: malformed invocations fail with usage errors.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdOptimize([]string{"-domain", "2,16", "-query", "I,R"}, &out, &errb); err == nil {
		t.Error("optimize without -cache accepted")
	}
	if err := cmdServe([]string{"-domain", "2,16", "-query", "I,R"}, &out, &errb); err == nil {
		t.Error("serve without data file accepted")
	}
	if err := cmdServe([]string{"-domain", "2,16", "-query", "I,R", "-snapshot-dir", "snaps", "nodata.csv"}, &out, &errb); err == nil {
		t.Error("one-shot serve with -snapshot-dir accepted (snapshots belong to the daemon)")
	}
	if err := cmdRun([]string{"-domain", "2,16", "nodata.csv"}, &out, &errb); err == nil {
		t.Error("run without -query accepted")
	}
}

// TestServeHTTPDaemon boots the daemon on a loopback port with a
// pre-registered workload, exercises the HTTP surface, then cancels the
// context (the SIGINT/SIGTERM path) and checks the shutdown is clean.
func TestServeHTTPDaemon(t *testing.T) {
	data := writeTestData(t)
	cfg := daemonConfig{
		cache:    t.TempDir(),
		eps:      1.0,
		seed:     123,
		restarts: 2,
		optseed:  9,
		drain:    2 * time.Second, // zero grace can race the last conn going idle and print the "draining" variant
		domain:   "2,16",
		queries:  []string{"I,R", "T,P"},
		dataPath: data,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out, errb bytes.Buffer
	go func() {
		errc <- serveDaemon(ctx, "127.0.0.1:0", cfg, &out, &errb, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v\n%s", err, errb.String())
	}

	// All startup writes happen before onReady, so reading stdout is safe.
	key := strings.TrimSpace(out.String())
	if key == "" {
		t.Fatal("daemon printed no pre-registered engine key")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/v1/engines/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engine metadata: status %d", resp.StatusCode)
	}

	resp, err = http.Post("http://"+addr+"/v1/engines/"+key+"/answer", "application/json",
		strings.NewReader(`{"queries":["I,T","T,I"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: status %d: %s", resp.StatusCode, body)
	}
	var ans struct {
		Answers [][]float64 `json:"answers"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != 2 || len(ans.Answers[0]) != 2 || len(ans.Answers[1]) != 16 {
		t.Fatalf("answer shape wrong: %d vectors", len(ans.Answers))
	}

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("daemon did not shut down cleanly: %v", err)
	}
	if !strings.Contains(errb.String(), "shut down cleanly") {
		t.Fatalf("missing shutdown diagnostic: %s", errb.String())
	}
}

// TestServeHTTPDaemonRecovery is the CLI-level kill-and-restart check: a
// daemon with -snapshot-dir is stopped after answering, a second daemon
// boots over the same snapshot directory with a FRESH strategy cache, and
// the pre-registration resolves to the same engine key with byte-identical
// answers — the snapshots alone carried the engine across the restart.
func TestServeHTTPDaemonRecovery(t *testing.T) {
	data := writeTestData(t)
	snapDir := filepath.Join(t.TempDir(), "snaps")
	baseCfg := daemonConfig{
		snapDir:  snapDir,
		eps:      1.0,
		seed:     123,
		restarts: 2,
		optseed:  9,
		drain:    2 * time.Second,
		domain:   "2,16",
		queries:  []string{"I,R", "T,P"},
		dataPath: data,
	}
	boot := func(label string) (key string, answer []byte) {
		t.Helper()
		cfg := baseCfg
		cfg.cache = t.TempDir() // fresh registry every boot: only the snapshots persist
		runDaemon(t, label, cfg, func(addr, k string) {
			key, answer = k, post(t, "http://"+addr+"/v1/engines/"+k+"/answer", smokeAnswerBody, http.StatusOK)
		})
		return key, answer
	}

	key1, answer1 := boot("first boot")
	key2, answer2 := boot("restart")
	if key2 != key1 {
		t.Fatalf("restarted daemon derived a different engine key:\n%s\n%s", key1, key2)
	}
	if !bytes.Equal(answer1, answer2) {
		t.Fatalf("answers diverged across restart:\n%s\nvs\n%s", answer1, answer2)
	}

	// The snapshots subcommand sees the one durable engine and verifies it.
	var out, errb bytes.Buffer
	if err := cmdSnapshots([]string{"-dir", snapDir, "-verify"}, &out, &errb); err != nil {
		t.Fatalf("snapshots -verify: %v\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), key1) || !strings.Contains(out.String(), "cells=32") ||
		!strings.Contains(out.String(), "1 snapshot(s), 0 failed") {
		t.Fatalf("snapshots listing:\n%s", out.String())
	}
}

// smokeAnswerBody is the answer request of the recovery checks, here and
// in CI's kill -9 smoke.
const smokeAnswerBody = `{"queries":["I,T","T,I"]}`

// runDaemon boots the daemon with cfg, calls fn with its bound address
// and the pre-registered engine key, then shuts it down and requires a
// clean exit.
func runDaemon(t *testing.T, label string, cfg daemonConfig, fn func(addr, key string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out, errb bytes.Buffer
	go func() {
		errc <- serveDaemon(ctx, "127.0.0.1:0", cfg, &out, &errb, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		fn(addr, strings.TrimSpace(out.String())) // startup writes precede onReady
	case err := <-errc:
		t.Fatalf("%s: daemon exited before ready: %v\n%s", label, err, errb.String())
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("%s: shutdown: %v", label, err)
	}
}

// post sends body to url and returns the response body, failing the test
// on any status but want.
func post(t *testing.T, url, body string, want int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, b)
	}
	return b
}

// TestServeHTTPDaemonRecoversV1Store: a snapshot directory written before
// HDMMSNAP version 2 (testdata/recovery-v1: the CI smoke tenant's store as
// the version 1 daemon left it after kill -9, with that daemon's engine key
// and /answer bytes) keeps recovering. Booted over a copy with a fresh
// strategy cache, the daemon re-derives the same key and answers the same
// bytes. A second tenant registered on that daemon adds a version 2 file
// beside the version 1 one; Store.Recover adopts both and quarantines
// nothing, and `hdmm snapshots -verify` lists both.
func TestServeHTTPDaemonRecoversV1Store(t *testing.T) {
	fixture := filepath.Join("testdata", "recovery-v1")
	dir := filepath.Join(t.TempDir(), "snaps")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(fixture, "snaps"))); err != nil {
		t.Fatal(err)
	}
	keyFile, err := os.ReadFile(filepath.Join(fixture, "key.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantKey := strings.TrimSpace(string(keyFile))
	wantAnswer, err := os.ReadFile(filepath.Join(fixture, "answer.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemonConfig{
		cache:    t.TempDir(),
		snapDir:  dir,
		eps:      1.0,
		seed:     123,
		restarts: 2,
		optseed:  9,
		drain:    2 * time.Second,
		domain:   "2,16",
		queries:  []string{"I,R", "T,P"},
		dataPath: filepath.Join(fixture, "data.csv"),
	}
	var v2Key string
	runDaemon(t, "boot over the v1 store", cfg, func(addr, key string) {
		if key != wantKey {
			t.Fatalf("engine key %s, the v1 daemon's was %s", key, wantKey)
		}
		if got := post(t, "http://"+addr+"/v1/engines/"+key+"/answer", smokeAnswerBody, http.StatusOK); !bytes.Equal(got, wantAnswer) {
			t.Fatalf("answer differs from the v1 daemon's:\n%s\nvs\n%s", got, wantAnswer)
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{"\nhdmm_snapshot_recovered_total 1\n", "\nhdmm_degraded 0\n"} {
			if !strings.Contains(string(metrics), want) {
				t.Fatalf("metrics lack %q:\n%s", strings.TrimSpace(want), metrics)
			}
		}
		var reg struct {
			Key string `json:"key"`
		}
		body := post(t, "http://"+addr+"/v1/engines",
			`{"domain":[2,16],"queries":["I,T"],"data":[`+strings.TrimSuffix(strings.Repeat("1,", 32), ",")+`],"eps":0.5,"seed":7,"restarts":1}`, http.StatusCreated)
		if err := json.Unmarshal(body, &reg); err != nil {
			t.Fatal(err)
		}
		v2Key = reg.Key
	})

	versions := map[uint16]int{}
	entries, err := snapshot.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		versions[binary.LittleEndian.Uint16(blob[len("HDMMSNAP"):])]++
	}
	if versions[1] != 1 || versions[2] != 1 || len(entries) != 2 {
		t.Fatalf("store holds versions %v, want one v1 and one v2 file", versions)
	}

	store, err := snapshot.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := store.Recover(func(sn *snapshot.Snapshot) error {
		_, err := serve.Restore(sn, 1)
		return err
	})
	if err != nil || n != 2 {
		t.Fatalf("Recover adopted %d snapshots (err %v), want 2", n, err)
	}
	if st := store.Stats(); st.Quarantined != 0 || st.Degraded {
		t.Fatalf("mixed-version recovery: %+v", st)
	}

	var out, errb bytes.Buffer
	if err := cmdSnapshots([]string{"-dir", dir, "-verify"}, &out, &errb); err != nil {
		t.Fatalf("snapshots -verify: %v\n%s", err, errb.String())
	}
	listing := out.String()
	if !strings.Contains(listing, wantKey) || !strings.Contains(listing, v2Key) ||
		!strings.Contains(listing, "2 snapshot(s), 0 failed") {
		t.Fatalf("snapshots listing:\n%s", listing)
	}
}

// TestCmdSnapshotsUsage: bad invocations and corrupt stores fail loudly.
func TestCmdSnapshotsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdSnapshots([]string{}, &out, &errb); err == nil {
		t.Error("snapshots without -dir accepted")
	}
	if err := cmdSnapshots([]string{"-dir", t.TempDir(), "extra"}, &out, &errb); err == nil {
		t.Error("snapshots with positional args accepted")
	}
	// A corrupt snapshot lists its reason and fails only under -verify.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if err := cmdSnapshots([]string{"-dir", dir}, &out, &errb); err != nil {
		t.Fatalf("snapshots over a corrupt store without -verify: %v", err)
	}
	if !strings.Contains(out.String(), "1 failed") {
		t.Fatalf("listing did not count the corrupt file:\n%s", out.String())
	}
	if err := cmdSnapshots([]string{"-dir", dir, "-verify"}, &out, &errb); err == nil {
		t.Error("snapshots -verify over a corrupt store succeeded")
	}
}

// TestServeHTTPUsageErrors: invalid -http invocations fail before binding.
func TestServeHTTPUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := cmdServe([]string{"-http", ":0", "a.csv", "b.csv"}, &out, &errb); err == nil {
		t.Error("serve -http with two data files accepted")
	}
	if err := cmdServe([]string{"-http", ":0", "-domain", "2,16", "a.csv"}, &out, &errb); err == nil {
		t.Error("serve -http pre-registration without -query accepted")
	}
	if err := cmdServe([]string{"-http", ":0", "-domain", "2,16", "-query", "I,R"}, &out, &errb); err == nil {
		t.Error("serve -http with workload flags but no data file accepted")
	}
	if err := cmdServe([]string{"-http", ":0", "-queries", "q.txt"}, &out, &errb); err == nil {
		t.Error("serve -http with -queries accepted")
	}
	// Budget/seed flags without a pre-registered workload have nothing to
	// apply to and must be rejected, not silently ignored.
	if err := cmdServe([]string{"-http", ":0", "-eps", "0.5"}, &out, &errb); err == nil {
		t.Error("serve -http with stray -eps accepted")
	}
	if err := cmdServe([]string{"-http", ":0", "-seed", "7", "-restarts", "3"}, &out, &errb); err == nil {
		t.Error("serve -http with stray -seed/-restarts accepted")
	}
	if err := cmdServe([]string{"-http", ":0", "-drain", "-1s"}, &out, &errb); err == nil {
		t.Error("serve -http with negative -drain accepted")
	}
}

// TestServeHTTPBusyPortFailsFast: a bind failure must surface before any
// pre-registration work (optimization + the one private measurement), not
// after it.
func TestServeHTTPBusyPortFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	data := writeTestData(t)
	cfg := daemonConfig{
		cache: t.TempDir(), eps: 1, restarts: 2, optseed: 9,
		domain: "2,16", queries: []string{"I,R"}, dataPath: data,
	}
	before := core.RestartsPerformed()
	var out, errb bytes.Buffer
	if err := serveDaemon(context.Background(), ln.Addr().String(), cfg, &out, &errb, nil); err == nil {
		t.Fatal("daemon bound a busy port")
	}
	if d := core.RestartsPerformed() - before; d != 0 {
		t.Fatalf("bind failure after %d optimizer restarts, want 0 (fail before pre-registration)", d)
	}
	if out.Len() != 0 {
		t.Fatalf("bind failure printed an engine key: %q", out.String())
	}
}

// TestServeHTTPDrainZero: an explicit -drain 0 is honored — shutdown
// without waiting — rather than silently coerced to the default grace.
func TestServeHTTPDrainZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out, errb bytes.Buffer
	go func() {
		errc <- serveDaemon(ctx, "127.0.0.1:0", daemonConfig{drain: 0}, &out, &errb, func(addr string) { ready <- addr })
	}()
	select {
	case <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v\n%s", err, errb.String())
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain=0 shutdown returned error: %v", err)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
