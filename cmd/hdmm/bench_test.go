package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCmdBench runs the harness at the shortest measurement window and
// checks the BENCH_5-format artifact: every expected op is present with
// sane fields, so the CI bench job cannot silently upload an empty or
// malformed trajectory.
func TestCmdBench(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	if err := cmdBench([]string{"-benchtime", "1", "-workers", "1,2", "-out", out}, &stdout, &stderr); err != nil {
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
		"kron/matvec": false, "kron/mattvec": false,
		"kron/matvec-cph": false, "kron/mattvec-cph": false,
		"select/opt0-cph": false, "select/opt0-descent": false,
		"select/optkron": false, "select/optplus": false, "select/cph": false,
		"reconstruct/kron": false, "reconstruct/union": false, "reconstruct/union-cph": false,
		"measure/laplace": false, "measure/gaussian": false,
		"serve/answer512": false, "serve/answer-cph": false,
		"http/register-decode": false, "http/answer-cph": false,
		"snapshot/roundtrip": false,
	}
	workerRows := map[int]int{}
	for _, r := range results {
		if _, ok := want[r.Op]; ok {
			want[r.Op] = true
		}
		workerRows[r.Workers]++
		if r.Kernels != "reference" {
			t.Errorf("%s: kernels = %q, want reference", r.Op, r.Kernels)
		}
		if r.NsPerOp <= 0 || r.Iters <= 0 || r.Workers <= 0 {
			t.Errorf("%s (workers=%d): non-positive measurement %+v", r.Op, r.Workers, r)
		}
		if r.AllocsPerOp < 0 || r.BytesPerOp < 0 || r.MBPerS < 0 {
			t.Errorf("%s: negative counters %+v", r.Op, r)
		}
		if r.AllocsPerOp >= 1 && r.BytesPerOp <= 0 {
			t.Errorf("%s: %v allocs/op but %v bytes/op", r.Op, r.AllocsPerOp, r.BytesPerOp)
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
	// Every op must appear once per requested worker count.
	if workerRows[1] != len(want) || workerRows[2] != len(want) {
		t.Errorf("worker sweep rows = %v, want %d per requested count", workerRows, len(want))
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

// TestAssertImproves covers the CI regression gate: a run must beat the
// baseline's best MB/s for the asserted op, and a baseline it cannot beat
// (or that lacks the op) is an error.
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
	// A committed artifact whose rows predate bytes_per_op still loads.
	legacy := filepath.Join("..", "..", "BENCH_28.json")
	if err := assertOpImproves(legacy, "select/cph", []benchResult{{Op: "select/cph", Workers: 1, MBPerS: 1}}, &out); err != nil {
		t.Fatalf("baseline without bytes_per_op rejected: %v", err)
	}

	// Multi-entry spec: every entry must pass; one failing entry fails the
	// gate even when an earlier entry improved.
	both := append([]benchResult{{Op: "kron/matvec", Workers: 1, MBPerS: 250}}, results...)
	improved := writeBaseline([]benchResult{
		{Op: "kron/matvec", Workers: 1, MBPerS: 120},
		{Op: "reconstruct/union", Workers: 1, MBPerS: 1.3},
	})
	if err := assertOpImproves(improved, "reconstruct/union, kron/matvec", both, &out); err != nil {
		t.Fatalf("multi-entry gate rejected improving run: %v", err)
	}
	regressed := writeBaseline([]benchResult{
		{Op: "kron/matvec", Workers: 1, MBPerS: 300},
		{Op: "reconstruct/union", Workers: 1, MBPerS: 1.3},
	})
	if err := assertOpImproves(regressed, "reconstruct/union,kron/matvec", both, &out); err == nil {
		t.Fatal("multi-entry gate passed despite kron/matvec regressing")
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
