package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	hdmm "repro"
)

// TestCmdBench runs the harness at the shortest measurement window and
// checks the BENCH_5-format artifact: every expected op is present with
// sane fields, so the CI bench job cannot silently upload an empty or
// malformed trajectory.
func TestCmdBench(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	prevBackend := hdmm.KernelBackend()
	var stdout, stderr bytes.Buffer
	if err := cmdBench([]string{"-benchtime", "1", "-workers", "1,2", "-kernels", "reference,fast", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("cmdBench: %v\nstderr: %s", err, stderr.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var results []benchResult
	if err := json.Unmarshal(blob, &results); err != nil {
		t.Fatalf("BENCH json: %v", err)
	}
	want := map[string]bool{
		"kron/matvec": false, "kron/mattvec": false, "kron/matmul16": false,
		"kron/matvec-cph": false, "kron/mattvec-cph": false,
		"select/opt0-cph": false, "select/cph": false,
		"reconstruct/kron": false, "reconstruct/union": false,
		"serve/answer512": false, "snapshot/roundtrip": false,
	}
	workerRows := map[int]int{}
	kernelRows := map[string]int{}
	for _, r := range results {
		if _, ok := want[r.Op]; ok {
			want[r.Op] = true
		}
		workerRows[r.Workers]++
		kernelRows[r.Kernels]++
		if r.NsPerOp <= 0 || r.Iters <= 0 || r.Workers <= 0 {
			t.Errorf("%s (workers=%d): non-positive measurement %+v", r.Op, r.Workers, r)
		}
		if r.AllocsPerOp < 0 || r.MBPerS < 0 {
			t.Errorf("%s: negative counters %+v", r.Op, r)
		}
		if r.GOARCH != runtime.GOARCH {
			t.Errorf("%s: GOARCH = %q, want %q", r.Op, r.GOARCH, runtime.GOARCH)
		}
		if r.CPUs != runtime.NumCPU() || r.GOMAXPROCS != runtime.GOMAXPROCS(0) || r.GoVersion != runtime.Version() {
			t.Errorf("%s: machine fields cpus=%d gomaxprocs=%d go_version=%q, want %d, %d, %q",
				r.Op, r.CPUs, r.GOMAXPROCS, r.GoVersion, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		}
	}
	for op, seen := range want {
		if !seen {
			t.Errorf("op %s missing from results", op)
		}
	}
	// 2 worker counts × 2 backends: every op must appear in each cell.
	if workerRows[1] != 2*len(want) || workerRows[2] != 2*len(want) {
		t.Errorf("worker sweep rows = %v, want %d per requested count", workerRows, 2*len(want))
	}
	if kernelRows["reference"] != 2*len(want) || kernelRows["fast"] != 2*len(want) {
		t.Errorf("kernel sweep rows = %v, want %d per backend", kernelRows, 2*len(want))
	}
	if got := hdmm.KernelBackend(); got != prevBackend {
		t.Errorf("cmdBench left kernel backend %q, want prior %q restored", got, prevBackend)
	}
}

// TestParseWorkerSet: the sweep flag deduplicates, keeps order, and rejects
// garbage; the default sweep is bounded by GOMAXPROCS and starts at 1.
func TestParseWorkerSet(t *testing.T) {
	set, err := parseWorkerSet("4, 1,4,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 || set[0] != 4 || set[1] != 1 || set[2] != 8 {
		t.Fatalf("parseWorkerSet = %v", set)
	}
	for _, bad := range []string{"0", "-2", "x", "1,,2"} {
		if _, err := parseWorkerSet(bad); err == nil {
			t.Errorf("parseWorkerSet(%q) accepted", bad)
		}
	}
	def, err := parseWorkerSet("")
	if err != nil || len(def) == 0 || def[0] != 1 {
		t.Fatalf("default sweep = %v, %v", def, err)
	}
	seen := map[int]bool{}
	for _, w := range def {
		if seen[w] {
			t.Fatalf("default sweep has duplicate %d: %v", w, def)
		}
		seen[w] = true
	}
}

// TestParseKernelSet: the backend sweep flag deduplicates, keeps order,
// rejects unknown backends, and defaults to the active backend only.
func TestParseKernelSet(t *testing.T) {
	set, err := parseKernelSet("fast, reference,fast")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0] != "fast" || set[1] != "reference" {
		t.Fatalf("parseKernelSet = %v", set)
	}
	for _, bad := range []string{"turbo", "reference,,fast", "fast,scalar"} {
		if _, err := parseKernelSet(bad); err == nil {
			t.Errorf("parseKernelSet(%q) accepted", bad)
		}
	}
	def, err := parseKernelSet("")
	if err != nil || len(def) != 1 || def[0] != hdmm.KernelBackend() {
		t.Fatalf("default sweep = %v, %v (active backend %q)", def, err, hdmm.KernelBackend())
	}
}

// TestAssertImproves covers the CI regression gate: a run must beat the
// baseline's best MB/s for the asserted op, and a baseline it cannot beat
// (or that lacks the op) is an error. Entries may carry a KERNELS: prefix
// restricting the current side to one backend's rows.
func TestAssertImproves(t *testing.T) {
	results := []benchResult{
		{Op: "reconstruct/union", Workers: 1, MBPerS: 50},
		{Op: "reconstruct/union", Workers: 2, MBPerS: 70},
	}
	writeBaseline := func(rows []benchResult) string {
		blob, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	slow := writeBaseline([]benchResult{{Op: "reconstruct/union", Workers: 1, MBPerS: 1.3}})
	if err := assertOpImproves(slow, "reconstruct/union", results, &out); err != nil {
		t.Fatalf("faster run rejected: %v", err)
	}
	fast := writeBaseline([]benchResult{{Op: "reconstruct/union", Workers: 1, MBPerS: 500}})
	if err := assertOpImproves(fast, "reconstruct/union", results, &out); err == nil {
		t.Fatal("regressed run accepted")
	}
	if err := assertOpImproves(slow, "no/such-op", results, &out); err == nil {
		t.Fatal("missing op accepted")
	}
	if err := assertOpImproves(filepath.Join(t.TempDir(), "missing.json"), "reconstruct/union", results, &out); err == nil {
		t.Fatal("unreadable baseline accepted")
	}

	// Backend-qualified entries: the current side is filtered to that
	// backend's rows, the baseline side (a pre-backend artifact with no
	// kernels field) is not.
	tagged := []benchResult{
		{Op: "kron/matvec", Kernels: "reference", Workers: 1, MBPerS: 100},
		{Op: "kron/matvec", Kernels: "fast", Workers: 1, MBPerS: 250},
	}
	if err := assertOpImproves(writeBaseline([]benchResult{{Op: "kron/matvec", Workers: 1, MBPerS: 120}}),
		"fast:kron/matvec", tagged, &out); err != nil {
		t.Fatalf("fast rows beat baseline but gate rejected: %v", err)
	}
	if err := assertOpImproves(writeBaseline([]benchResult{{Op: "kron/matvec", Workers: 1, MBPerS: 300}}),
		"fast:kron/matvec", tagged, &out); err == nil {
		t.Fatal("regressed fast rows accepted")
	}
	if err := assertOpImproves(slow, "turbo:reconstruct/union", results, &out); err == nil {
		t.Fatal("unknown backend prefix accepted")
	}
	// Multi-entry spec: every entry must pass; one failing entry fails the
	// gate even when an earlier entry improved.
	multi := writeBaseline([]benchResult{
		{Op: "kron/matvec", Workers: 1, MBPerS: 120},
		{Op: "reconstruct/union", Workers: 1, MBPerS: 1.3},
	})
	both := append(append([]benchResult{}, results...), tagged...)
	if err := assertOpImproves(multi, "reconstruct/union, fast:kron/matvec", both, &out); err != nil {
		t.Fatalf("multi-entry gate rejected improving run: %v", err)
	}
	if err := assertOpImproves(multi, "reconstruct/union,reference:kron/matvec", both, &out); err == nil {
		t.Fatal("multi-entry gate passed despite reference:kron/matvec regressing")
	}
}

// TestCmdBenchRejectsArgs: bench takes flags only.
func TestCmdBenchRejectsArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := cmdBench([]string{"extra"}, &stdout, &stderr)
	if _, ok := err.(usageError); !ok {
		t.Fatalf("want usageError, got %v", err)
	}
}
