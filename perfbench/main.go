// Command perfbench is the repository's end-to-end benchmark of the HDMM
// daemon. It boots `hdmm serve -http` as its own process with fresh -cache
// and -snapshot-dir directories, drives it over loopback HTTP with one
// closed-loop client through a fixed, seed-generated op list on the CPH
// person schema, checks every response, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload register-warm --seed 7 --seconds 20 --trace 0
//
// Workloads:
//
//	register-cold  every op registers a tenant with a fresh opt_seed: full
//	               strategy selection, one measurement, one LSMR solve,
//	               one strategy write and one snapshot write per op
//	register-warm  every op registers a new tenant on the set-up workload's
//	               cached strategy: measurement and solve only
//	answer         every op answers a batch of marginal products on one
//	               tenant: the read path
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same daemon
// phase for the daemon-side counters, then repeats the set-up and op list
// in-process with a span around each layer's public entry point, and
// reports per-layer metrics. run.sh builds the daemon and this command
// from the checkout into .bench_build, where results and spans are also
// written.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"repro/internal/fsx"
	"repro/internal/server"
)

// runLimit bounds one run; the harness allows 180 seconds.
const runLimit = 170 * time.Second

// traceCover: the traced run's layer spans must cover at least this share
// of its op wall time.
const traceCover = 0.95

type bench struct {
	plan    *Plan
	bin     string // hdmm binary
	workdir string // build and result directory
	tmp     string // per-run scratch directory under workdir
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "register-cold, register-warm or answer")
	seed := fs.Uint64("seed", 1, "workload seed: generates every histogram, budget, noise and selection seed")
	seconds := fs.Int("seconds", 20, "nominal run length; fixes the op count, never a time window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced in-process run")
	bin := fs.String("daemon", "", "hdmm binary to benchmark")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch state and result files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *bin == "" {
		return errors.New("-daemon is required")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	plan, err := NewPlan(*wl, *seed, opCount(*wl, *seconds))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(*workdir, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(*workdir, "tmp"), "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b := &bench{plan: plan, bin: *bin, workdir: *workdir, tmp: tmp}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	dr, err := b.runDaemon(ctx)
	if err != nil {
		return err
	}
	out := result{Attempted: plan.Ops(), Metrics: map[string]metric{}}
	for _, f := range dr.failed {
		if f {
			out.Failed++
		}
	}
	gateErrs := append([]string{}, dr.gateErrs...)
	var tr *traceResult
	if *traced == 1 {
		if tr, err = b.runTraced(ctx); err != nil {
			return err
		}
		out.Attempted += tr.ops
		out.Failed += tr.failed
		gateErrs = append(gateErrs, tr.gateErrs...)
		out.Metrics = b.perLayer(dr, tr)
		if f := out.Metrics["trace.unattributed_frac"].Value; f > 1-traceCover {
			out.Failed++
			gateErrs = append(gateErrs, fmt.Sprintf("traced layer spans leave %.3f of op wall time unattributed (bound %.2f)", f, 1-traceCover))
		}
	} else {
		out.Metrics = b.endToEnd(dr)
	}
	out.Correct = out.Failed == 0 && len(gateErrs) == 0

	rec := record{
		Machine:  machineRecord(dr.kernels),
		Workload: plan.Workload, Seed: plan.Seed, Seconds: *seconds, Trace: *traced,
		Ops: plan.Ops(), Samples: len(dr.latMs), SetupS: dr.setupS, LatencyMs: dr.latMs, GateErrors: gateErrs,
		Result: out,
	}
	if err := b.writeResults(rec, tr); err != nil {
		return err
	}
	info, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	fmt.Println(string(line))
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result: the machine and regime it ran in, the sample
// counts behind each metric, and every failed gate.
type record struct {
	Machine    machine   `json:"machine"`
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      int       `json:"trace"`
	Ops        int       `json:"ops"`
	Samples    int       `json:"latency_samples"`
	SetupS     []float64 `json:"setup_s_samples"`
	LatencyMs  []float64 `json:"latency_ms_samples"`
	GateErrors []string  `json:"gate_errors"`
	Result     result    `json:"result"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Kernels    string `json:"kernels"` // the daemon's backend, from /healthz
	Commit     string `json:"commit"`
}

func machineRecord(kernels string) machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH,
		GoVersion: runtime.Version(), Kernels: kernels, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// endToEnd derives the user-visible metrics of the untraced daemon run.
func (b *bench) endToEnd(dr *daemonResult) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(dr.setupS), "s"},
		"p50_ms":        {quantile(dr.latMs, 0.5), "ms"},
		"p90_ms":        {quantile(dr.latMs, 0.9), "ms"},
		"ops_per_s":     {float64(len(dr.latMs)) / dr.wallS, "1/s"},
		"expected_rmse": {mean(dr.expected), "count"},
		"observed_rmse": {dr.observed, "count"},
		"peak_rss_mb":   {dr.peakRSS, "MiB"},
	}
}

// perLayer derives the per-layer metrics from the daemon's counters and the
// traced run's spans. Times are per timed op.
func (b *bench) perLayer(dr *daemonResult, tr *traceResult) map[string]metric {
	ops := float64(tr.ops)
	self, wall := tr.selfTimes()
	perOp := func(name string) metric { return metric{self[name] / ops, "ms"} }
	root := "op.register"
	endpoint := "register"
	if b.plan.Workload == wlAnswer {
		root, endpoint = "op.answer", "answer"
	}

	latSum, stageSum := sum(dr.latMs), dr.stageMs
	daemonOpMs := (endpointTotalMs(dr.m1, endpoint) - endpointTotalMs(dr.m0, endpoint)) / ops
	answerS := self["mech.answer"] / 1e3
	kronMBPerS := 0.0
	if answerS > 0 {
		kronMBPerS = sum(tr.kronMB) / answerS
	}
	snaps := func(m *server.MetricsResponse) (errs, retries float64) {
		if m.Snapshots == nil {
			return 0, 0
		}
		return float64(m.Snapshots.WriteErrors), float64(m.Snapshots.WriteRetries)
	}
	e0, r0 := snaps(dr.m0)
	e1, r1 := snaps(dr.m1)

	return map[string]metric{
		"server.self_ms":           {(latSum - stageSum) / ops, "ms"},
		"server.req_kb":            {mean(dr.reqBytes) / 1024, "KiB"},
		"server.resp_kb":           {mean(dr.respBytes) / 1024, "KiB"},
		"server.unattributed_frac": {(latSum - stageSum) / latSum, "fraction"},
		"workload.parse_ms":        perOp("workload.parse"),
		"registry.hits":            {float64(dr.m1.StrategyCache.Hits - dr.m0.StrategyCache.Hits), "count"},
		"registry.misses":          {float64(dr.m1.StrategyCache.Misses - dr.m0.StrategyCache.Misses), "count"},
		"core.select_ms":           perOp("core.select"),
		"core.restarts":            {tr.restarts, "count"},
		"lsmr.precondition_ms":     perOp("lsmr.precondition"),
		"lsmr.solve_ms":            perOp("lsmr.solve"),
		"lsmr.iters":               {mean(dr.iters), "count"},
		"mech.measure_ms":          perOp("mech.measure"),
		"mech.answer_ms":           perOp("mech.answer"),
		"mech.measurements":        {float64(stageCount(dr.m1, "measure") - stageCount(dr.m0, "measure")), "count"},
		"mech.answer_alloc_mb":     {mean(tr.answerAlloc), "MiB"},
		"kron.answer_mb":           {mean(tr.kronMB), "MiB"},
		"kron.answer_mb_per_s":     {kronMBPerS, "MiB/s"},
		"snapshot.save_ms":         perOp("snapshot.save"),
		"snapshot.kb":              {mean(tr.snapKB), "KiB"},
		"snapshot.write_errors":    {e1 - e0, "count"},
		"snapshot.retries":         {r1 - r0, "count"},
		"serve.build_alloc_mb":     {mean(tr.buildAlloc), "MiB"},
		"serve.self_ms":            perOp("serve.build"),
		"json.codec_ms":            perOp("json.codec"),
		"proc.cpu_util":            {dr.cpuUtil, "fraction"},
		"proc.gc_cycles":           {tr.gcCycles / ops, "count"},
		"trace.overhead_frac":      {tr.overheadMs / wall, "fraction"},
		"trace.gap_frac":           {(wall/ops - daemonOpMs) / daemonOpMs, "fraction"},
		"trace.unattributed_frac":  {self[root] / wall, "fraction"},
	}
}

func endpointTotalMs(m *server.MetricsResponse, name string) float64 {
	e, ok := m.Endpoints[name]
	if !ok {
		return 0
	}
	return float64(e.Requests) * e.MeanMs
}

// writeResults stores the record (and, for a traced run, its spans) under
// workdir/results through the atomic-write seam.
func (b *bench) writeResults(rec record, tr *traceResult) error {
	dir := filepath.Join(b.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace)
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := fsx.WriteAtomic(fsx.OS{}, filepath.Join(dir, name+".json"), blob); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	if blob, err = json.Marshal(tr.spans); err != nil {
		return err
	}
	return fsx.WriteAtomic(fsx.OS{}, filepath.Join(dir, name+"-spans.json"), blob)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
