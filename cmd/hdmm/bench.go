package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	hdmm "repro"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// benchResult is one row of the perf-trajectory artifact (BENCH_13.json):
// one operation at one worker count. Kernels, GOARCH, CPUs, GOMAXPROCS and
// GoVersion identify what actually ran and where — a 2-CPU row is not
// comparable to a 16-CPU one, and rows of older artifacts made under the
// retired lane-split backend say "fast" — and older artifacts predate the
// fields, so they unmarshal as zero values.
type benchResult struct {
	Op          string  `json:"op"`
	Kernels     string  `json:"kernels,omitempty"`
	GOARCH      string  `json:"goarch,omitempty"`
	CPUs        int     `json:"cpus,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	GoVersion   string  `json:"go_version,omitempty"`
	Workers     int     `json:"workers"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s"` // data volume moved per second
}

// benchCase is one operation of the harness. bytes is the data volume one
// op reads+writes (for MB/s); setup runs untimed, fn is the measured op.
type benchCase struct {
	op    string
	bytes int64
	fn    func()
}

// measure times fn with a calibrating loop: it grows the iteration count
// until the batch takes at least targetMS, then reports per-op time and
// allocations from the final batch.
func measure(c benchCase, targetMS int) benchResult {
	target := time.Duration(targetMS) * time.Millisecond
	iters := 1
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= target || iters >= 1<<20 {
			ns := float64(elapsed.Nanoseconds()) / float64(iters)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(iters)
			mbps := 0.0
			if ns > 0 {
				mbps = float64(c.bytes) / ns * 1e9 / 1e6
			}
			return benchResult{Op: c.op, Iters: iters, NsPerOp: ns, AllocsPerOp: allocs, MBPerS: mbps}
		}
		// Aim past the target with headroom, growing at most 64× per round.
		grow := int64(float64(iters) * float64(target) / float64(elapsed+1) * 1.2)
		if max := int64(iters) * 64; grow > max {
			grow = max
		}
		if grow <= int64(iters) {
			grow = int64(iters) + 1
		}
		iters = int(grow)
	}
}

func benchRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xbe7c)) }

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func randSlice(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// benchCases builds the harness: the Kronecker kernels on a 3-factor
// 68×64 product (the shape of the existing kernel microbenchmarks) and on
// a CPH strategy block's factor shapes, strategy selection on the CPH
// workload, the two reconstruction paths, and the batched serving path on
// a small domain and on the census schema.
// workers bounds the selection's and the serving engine's fan-out (the
// kernels read the process-wide bound the caller has already set).
func benchCases(workers int) ([]benchCase, error) {
	rng := benchRand(101)
	ctx := context.Background()
	var cases []benchCase

	// --- Kronecker kernels: 3 factors of 68×64, domain 64³ = 262144. ---
	fs := make([]*mat.Dense, 3)
	for i := range fs {
		fs[i] = randDense(rng, 68, 64)
	}
	p := kron.NewProduct(fs...)
	rows, cols := p.Dims()
	x := randSlice(rng, cols)
	y := randSlice(rng, rows)
	dst := make([]float64, rows)
	dstT := make([]float64, cols)
	ws := kron.NewWorkspace()
	p.MatVecTo(dst, x, ws) // grow the workspace buffers
	p.MatTVecTo(dstT, y, ws)
	cases = append(cases,
		benchCase{"kron/matvec", int64(8 * (cols + rows)), func() { p.MatVecTo(dst, x, ws) }},
		benchCase{"kron/mattvec", int64(8 * (rows + cols)), func() { p.MatTVecTo(dstT, y, ws) }},
	)

	// --- The same kernels on the factor shapes of one strategy block of
	// the CPH schema (2·2·64·17·115 = 500480 cells): unequal factors, so
	// the forward and transposed sweeps contract them in opposite order.
	// Its own generator keeps the other rows' inputs unchanged.
	crng := benchRand(211)
	cph := kron.NewProduct(randDense(crng, 3, 2), randDense(crng, 3, 2),
		randDense(crng, 65, 64), randDense(crng, 18, 17), randDense(crng, 122, 115))
	crows, ccols := cph.Dims()
	cx := randSlice(crng, ccols)
	cy := randSlice(crng, crows)
	cdst := make([]float64, crows)
	cdstT := make([]float64, ccols)
	cws := kron.NewWorkspace()
	cph.MatVecTo(cdst, cx, cws)
	cph.MatTVecTo(cdstT, cy, cws)
	cases = append(cases,
		benchCase{"kron/matvec-cph", int64(8 * (ccols + crows)), func() { cph.MatVecTo(cdst, cx, cws) }},
		benchCase{"kron/mattvec-cph", int64(8 * (crows + ccols)), func() { cph.MatTVecTo(cdstT, cy, cws) }},
	)

	// --- Selection on the CPH workload the end-to-end benchmark's tenants
	// register. opt0-cph is one objective-only evaluation plus one with the
	// gradient of the Theorem 4 objective at p=7 on the age attribute's
	// Gram (115×115, the shape most of a CPH selection's evaluations run
	// at), at an OPT₀ iterate whose Θ, like the line search's, is mostly
	// exact zeros; its data volume is the Gram, read once per evaluation.
	// cph is the whole of Algorithm 2 at 2 restarts.
	cw, err := census.CPHMarginalWorkload()
	if err != nil {
		return nil, err
	}
	age := cw.Domain.NumAttrs() - 1
	na := cw.Domain.Attr(age).Size
	ageGram := mat.NewDense(na, na)
	for _, p := range cw.Products {
		ageGram.Add(p.Terms[age].Gram())
	}
	const p0 = 7
	theta, _ := core.OPT0(ageGram, core.OPT0Options{P: p0, Restarts: 1, Seed: 21, MaxIter: 50})
	eval := core.NewOpt0ObjectiveForTrace(ageGram, p0)
	tx := theta.Theta.Data()
	tgrad := make([]float64, len(tx))
	cases = append(cases,
		benchCase{"select/opt0-cph", int64(2 * 8 * na * na), func() {
			eval(tx, nil)
			eval(tx, tgrad)
		}},
		benchCase{"select/cph", 0, func() {
			if _, err := core.Select(cw, core.HDMMOptions{Restarts: 2, Seed: 21, Workers: workers}); err != nil {
				panic(err)
			}
		}},
	)

	// --- Reconstruction: OPT⊗ pseudo-inverse path and OPT⁺ LSMR path. ---
	wk, err := workload.New(schema.Sizes(64, 64),
		workload.NewProduct(workload.AllRange(64), workload.AllRange(64)))
	if err != nil {
		return nil, err
	}
	ks, _, err := core.OPTKron(wk, core.OPTKronOptions{Seed: 3, MaxIter: 15, Restarts: 1})
	if err != nil {
		return nil, err
	}
	krows, kcols := ks.Operator().Dims()
	ky := randSlice(rng, krows)
	if _, err := ks.Reconstruct(ky); err != nil { // warm pinv cache
		return nil, err
	}
	cases = append(cases, benchCase{"reconstruct/kron", int64(8 * (krows + kcols)), func() {
		if _, err := ks.Reconstruct(ky); err != nil {
			panic(err)
		}
	}})

	wu, err := workload.New(schema.Sizes(32, 32),
		workload.NewProduct(workload.AllRange(32), workload.Total(32)),
		workload.NewProduct(workload.Total(32), workload.AllRange(32)))
	if err != nil {
		return nil, err
	}
	us, _, err := core.OPTPlus(wu, core.OPTPlusOptions{Kron: core.OPTKronOptions{Seed: 5, MaxIter: 15, Restarts: 1}})
	if err != nil {
		return nil, err
	}
	urows, ucols := us.Operator().Dims()
	uy := randSlice(rng, urows)
	uopts := core.ReconstructOptions{Workspace: kron.NewWorkspace()}
	if _, err := us.ReconstructOpt(uy, uopts); err != nil {
		return nil, err
	}
	cases = append(cases, benchCase{"reconstruct/union", int64(8 * (urows + ucols)), func() {
		if _, err := us.ReconstructOpt(uy, uopts); err != nil {
			panic(err)
		}
	}})

	// --- Serving: a 512-query batch drawn from 4 shared specs. ---
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 2}, hdmm.Attribute{Name: "b", Size: 64})
	we, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(64)))
	if err != nil {
		return nil, err
	}
	data := make([]float64, dom.Size())
	for i := range data {
		data[i] = float64((i * 7) % 23)
	}
	eng, err := serve.NewEngineCtx(ctx, we, data, 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 1, Seed: 11},
		Seed:      17,
		Workers:   workers,
	})
	if err != nil {
		return nil, err
	}
	sizes := dom.AttrSizes()
	specs := make([]string, 512)
	for i := range specs {
		specs[i] = []string{"I,R", "T,P", "I,P", "T,R"}[i%4]
	}
	products, err := workload.ParseProducts(specs, sizes)
	if err != nil {
		return nil, err
	}
	answered, err := eng.AnswerSharedCtx(ctx, products) // warm matrices + validate
	if err != nil {
		return nil, err
	}
	var ansVals int64
	for _, a := range answered {
		ansVals += int64(len(a))
	}
	cases = append(cases, benchCase{"serve/answer512", 8 * (int64(len(data)) + ansVals), func() {
		if _, err := eng.AnswerSharedCtx(ctx, products); err != nil {
			panic(err)
		}
	}})

	// --- Serving at production shape: the census schema (500,480 cells)
	// and a fixed batch of one spec from each answer-pool class of the
	// end-to-end benchmark, each three times, every one with age Total —
	// so the first step of every spec's sweep is the same age contraction.
	// The tenant's workload is the three marginals the specs are drawn
	// from; only its estimate matters to the answer path.
	cdom := census.CPHDomain(false)
	cdata := make([]float64, cdom.Size())
	for i := range cdata {
		cdata[i] = float64((i * 7) % 23)
	}
	csizes := cdom.AttrSizes()
	cwl, err := workload.ParseProducts([]string{"I,I,T,T,T", "T,I,T,I,T", "T,T,I,I,T"}, csizes)
	if err != nil {
		return nil, err
	}
	ceng, err := serve.NewEngineCtx(ctx, workload.MustNew(cdom, cwl...), cdata, 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 1, Seed: 13},
		Seed:      19,
		Workers:   workers,
	})
	if err != nil {
		return nil, err
	}
	pool := []string{"R,P,T,T,T", "T,T,T,P,T", "T,T,W8,T,T", "T,R,T,W2,T", "T,T,W32,W8,T", "T,T,P,I,T"}
	cspecs := make([]string, 0, 3*len(pool))
	for range 3 {
		cspecs = append(cspecs, pool...)
	}
	cproducts, err := workload.ParseProducts(cspecs, csizes)
	if err != nil {
		return nil, err
	}
	canswered, err := ceng.AnswerSharedCtx(ctx, cproducts)
	if err != nil {
		return nil, err
	}
	var cansVals int64
	for _, a := range canswered {
		cansVals += int64(len(a))
	}
	cases = append(cases, benchCase{"serve/answer-cph", 8 * (int64(len(cdata)) + cansVals), func() {
		if _, err := ceng.AnswerSharedCtx(ctx, cproducts); err != nil {
			panic(err)
		}
	}})

	// --- Durability: full snapshot codec round-trip of the serving engine
	// above (encode + decode, no disk) — the fixed cost a registration pays
	// to become crash-safe and a boot pays per recovered engine.
	sn := eng.Snapshot("bench-engine", []string{"I,R"})
	blob, err := snapshot.Encode(sn)
	if err != nil {
		return nil, err
	}
	cases = append(cases, benchCase{"snapshot/roundtrip", 2 * int64(len(blob)), func() {
		b, err := snapshot.Encode(sn)
		if err != nil {
			panic(err)
		}
		if _, err := snapshot.Decode(b); err != nil {
			panic(err)
		}
	}})

	return cases, nil
}

// parseWorkerSet parses the -workers flag: a comma-separated list of worker
// counts, deduplicated in order. "" selects the default sweep {1, 2, 4,
// GOMAXPROCS} (deduplicated, counts above GOMAXPROCS dropped) — enough
// points to see whether an op scales, flatlines, or inverts.
func parseWorkerSet(spec string) ([]int, error) {
	if spec == "" {
		var set []int
		seen := map[int]bool{}
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			if w > runtime.GOMAXPROCS(0) || seen[w] {
				continue
			}
			seen[w] = true
			set = append(set, w)
		}
		return set, nil
	}
	var set []int
	seen := map[int]bool{}
	for _, part := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers value %q (want positive integers, e.g. 1,4,8)", part)
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		set = append(set, w)
	}
	return set, nil
}

// cmdBench runs the kernel/reconstruct/serve/snapshot benchmark harness
// across a sweep of worker counts and writes the results as JSON, seeding
// the perf trajectory future PRs diff against.
func cmdBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_13.json", "output path for the JSON results")
	targetMS := fs.Int("benchtime", 250, "minimum milliseconds of measurement per op")
	workersSpec := fs.String("workers", "", "comma-separated worker counts to sweep (default 1,2,4 and GOMAXPROCS, deduplicated)")
	baseline := fs.String("baseline", "", "baseline JSON results to compare against (from an earlier -out)")
	assertImproves := fs.String("assert-improves", "", "comma-separated ops; fail unless each op's best MB/s beats the -baseline file's (regression gate for CI)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hdmm bench [-out FILE] [-benchtime MS] [-workers 1,4,8] [-baseline FILE -assert-improves OP,...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return usageError(err.Error())
	}
	if fs.NArg() != 0 {
		return usageError("bench takes no positional arguments")
	}
	if (*assertImproves == "") != (*baseline == "") {
		return usageError("-baseline and -assert-improves go together")
	}

	workerSet, err := parseWorkerSet(*workersSpec)
	if err != nil {
		return usageError(err.Error())
	}

	var results []benchResult
	for _, workers := range workerSet {
		prev := hdmm.SetWorkers(workers)
		cases, err := benchCases(workers)
		if err != nil {
			hdmm.SetWorkers(prev)
			return err
		}
		for _, c := range cases {
			r := measure(c, *targetMS)
			r.Workers = workers
			r.Kernels = mat.Arithmetic
			r.GOARCH = runtime.GOARCH
			r.CPUs = runtime.NumCPU()
			r.GOMAXPROCS = runtime.GOMAXPROCS(0)
			r.GoVersion = runtime.Version()
			results = append(results, r)
			// Progress goes to stderr so `-out -` leaves stdout pure JSON.
			fmt.Fprintf(stderr, "%-22s workers=%-2d %12.0f ns/op %10.1f allocs/op %10.1f MB/s\n",
				c.op, workers, r.NsPerOp, r.AllocsPerOp, r.MBPerS)
		}
		hdmm.SetWorkers(prev)
	}

	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "-" {
		if _, err := stdout.Write(blob); err != nil {
			return err
		}
	} else {
		// The file doubles as the -assert-improves baseline for later CI
		// runs; an interrupted bench must not leave a torn JSON the gate
		// would then trip over.
		if err := fsx.WriteAtomic(fsx.OS{}, *out, blob); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d results)\n", *out, len(results))
	}
	if *assertImproves != "" {
		return assertOpImproves(*baseline, *assertImproves, results, stdout)
	}
	return nil
}

// bestMBPerS returns the best throughput recorded for op across worker
// counts, and whether the op appears at all.
func bestMBPerS(results []benchResult, op string) (float64, bool) {
	best, found := 0.0, false
	for _, r := range results {
		if r.Op != op {
			continue
		}
		found = true
		if r.MBPerS > best {
			best = r.MBPerS
		}
	}
	return best, found
}

// assertOpImproves is the CI regression gate: for each comma-separated op,
// the current run's best MB/s must strictly beat the baseline file's best
// for the same op. Comparing best-across-workers on both sides keeps the
// gate insensitive to which worker counts each run swept.
func assertOpImproves(baselinePath, spec string, results []benchResult, stdout io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: reading baseline: %w", err)
	}
	var base []benchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bench: parsing baseline %s: %w", baselinePath, err)
	}
	for _, op := range strings.Split(spec, ",") {
		op = strings.TrimSpace(op)
		was, ok := bestMBPerS(base, op)
		if !ok {
			return fmt.Errorf("bench: baseline %s has no %q rows", baselinePath, op)
		}
		now, ok := bestMBPerS(results, op)
		if !ok {
			return fmt.Errorf("bench: this run produced no %q rows", op)
		}
		if now <= was {
			return fmt.Errorf("bench: %s regressed: %.2f MB/s vs baseline %.2f MB/s", op, now, was)
		}
		fmt.Fprintf(stdout, "%s improved: %.2f MB/s vs baseline %.2f MB/s (%.1fx)\n", op, now, was, now/was)
	}
	return nil
}
