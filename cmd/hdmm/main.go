// Command hdmm answers workloads of predicate counting queries over CSV
// datasets under differential privacy using the High-Dimensional Matrix
// Mechanism. It follows HDMM's "optimize once, measure once, answer many"
// lifecycle with three modes:
//
//	hdmm optimize -domain 2,115 -query I,R -cache DIR        # precompute + persist strategy
//	hdmm serve -domain 2,115 -query I,R -cache DIR -eps 1 data.csv   # load strategy, answer
//	hdmm serve -http :8080 -cache DIR -snapshot-dir SNAPS    # HTTP answer-serving daemon
//	hdmm loadtest -addr http://127.0.0.1:8080 -rate 200      # open-loop load against a daemon
//	hdmm snapshots -dir SNAPS                                # inspect a snapshot directory
//	hdmm -domain 2,115 -query I,R -eps 1.0 data.csv          # legacy one-shot run
//
// optimize runs strategy selection (the expensive, data-independent step)
// and stores the result in the on-disk strategy registry at -cache, keyed
// by a canonical fingerprint of the workload and the selection options.
// serve resolves the same key — loading the persisted strategy instead of
// re-optimizing when one exists — measures the dataset once, and answers
// either the workload itself or the query products listed in -queries.
//
// serve -http ADDR runs the multi-tenant HTTP daemon instead of answering
// once: tenants register workloads over POST /v1/engines and answer query
// batches via POST /v1/engines/{key}/answer, all sharing the strategy
// registry at -cache. With -domain/-query and a data.csv argument the
// daemon pre-registers that workload at startup and prints its engine key.
// The daemon drains in-flight requests and exits cleanly on SIGINT/SIGTERM.
//
// The dataset is a headerless CSV of non-negative integers, one record per
// line, one column per attribute. The domain is given as comma-separated
// attribute sizes; the workload as a comma-separated list of per-attribute
// predicate-set specs joined per product, one product per -query flag
// (repeatable). Specs: I (identity), T (total), P (prefixes), R (all
// ranges), W<k> (width-k ranges). Output: one line per query with the
// private answer.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	hdmm "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	args := os.Args[1:]
	var err error
	if len(args) > 0 {
		switch args[0] {
		case "optimize":
			err = cmdOptimize(args[1:], os.Stdout, os.Stderr)
		case "serve":
			err = cmdServe(args[1:], os.Stdout, os.Stderr)
		case "run":
			err = cmdRun(args[1:], os.Stdout, os.Stderr)
		case "bench":
			err = cmdBench(args[1:], os.Stdout, os.Stderr)
		case "snapshots":
			err = cmdSnapshots(args[1:], os.Stdout, os.Stderr)
		case "loadtest":
			err = cmdLoadtest(args[1:], os.Stdout, os.Stderr)
		default:
			err = cmdRun(args, os.Stdout, os.Stderr)
		}
	} else {
		err = cmdRun(args, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdmm:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError distinguishes bad invocations (exit 2) from runtime failures.
type usageError string

func (e usageError) Error() string { return string(e) }

// workloadFlags is the flag set shared by every mode: domain + products.
type workloadFlags struct {
	fs      *flag.FlagSet
	domain  *string
	queries queryFlags
}

func newWorkloadFlags(name string) *workloadFlags {
	wf := &workloadFlags{fs: flag.NewFlagSet(name, flag.ContinueOnError)}
	wf.domain = wf.fs.String("domain", "", "comma-separated attribute sizes, e.g. 2,115")
	wf.fs.Var(&wf.queries, "query", "workload product, e.g. I,R (repeatable)")
	return wf
}

// workload parses the -domain and -query flags into a workload.
func (wf *workloadFlags) workload() (*hdmm.Workload, []int, error) {
	if *wf.domain == "" || len(wf.queries) == 0 {
		return nil, nil, usageError("missing -domain or -query")
	}
	sizes, err := hdmm.ParseSizes(*wf.domain)
	if err != nil {
		return nil, nil, err
	}
	attrs := make([]hdmm.Attribute, len(sizes))
	for i, n := range sizes {
		attrs[i] = hdmm.Attribute{Name: fmt.Sprintf("A%d", i), Size: n}
	}
	dom := hdmm.NewDomain(attrs...)
	products := make([]hdmm.Product, 0, len(wf.queries))
	for _, q := range wf.queries {
		p, err := hdmm.ParseProduct(q, sizes)
		if err != nil {
			return nil, nil, err
		}
		products = append(products, p)
	}
	w, err := hdmm.NewWorkload(dom, products...)
	return w, sizes, err
}

type queryFlags []string

func (q *queryFlags) String() string     { return strings.Join(*q, ";") }
func (q *queryFlags) Set(v string) error { *q = append(*q, v); return nil }

// cmdOptimize precomputes a strategy and persists it in the registry.
func cmdOptimize(args []string, stdout, stderr io.Writer) error {
	wf := newWorkloadFlags("optimize")
	cache := wf.fs.String("cache", "", "strategy registry directory (required)")
	restarts := wf.fs.Int("restarts", 5, "strategy-selection restarts")
	optseed := wf.fs.Uint64("optseed", 0, "strategy-selection seed")
	workers := wf.fs.Int("workers", 0, "cores (0 = all; results are identical for any value)")
	wf.fs.SetOutput(stderr)
	if err := wf.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return usageError(err.Error())
	}
	if *cache == "" {
		return usageError("optimize requires -cache DIR")
	}
	w, _, err := wf.workload()
	if err != nil {
		return err
	}

	hdmm.SetWorkers(*workers)
	opts := hdmm.SelectOptions{Restarts: *restarts, Seed: *optseed, Workers: *workers}
	key, sel, fromCache, err := hdmm.Optimize(w, *cache, opts)
	if err != nil {
		return err
	}
	action := "optimized"
	if fromCache {
		action = "already optimized"
	}
	rmse := math.Sqrt(2 * sel.Err / float64(w.NumQueries()))
	fmt.Fprintf(stderr, "%s %d-query workload: operator %s, expected per-query RMSE at ε=1: %.4f\n",
		action, w.NumQueries(), sel.Operator, rmse)
	fmt.Fprintf(stderr, "strategy %s stored in %s\n", key, *cache)
	fmt.Fprintln(stdout, key)
	return nil
}

// cmdServe loads (or computes) a strategy, measures the dataset once, and
// answers queries — or, with -http, runs the multi-tenant HTTP daemon.
func cmdServe(args []string, stdout, stderr io.Writer) error {
	wf := newWorkloadFlags("serve")
	cache := wf.fs.String("cache", "", "strategy registry directory")
	eps := wf.fs.Float64("eps", 1.0, "privacy budget ε")
	delta := wf.fs.Float64("delta", 0, "privacy parameter δ (0 = Laplace, >0 = Gaussian, requires ε ≤ 1)")
	seed := wf.fs.Uint64("seed", 0, "noise seed (0 = fresh entropy per run; non-zero = reproducible noise)")
	restarts := wf.fs.Int("restarts", 5, "strategy-selection restarts (cache-miss fallback)")
	optseed := wf.fs.Uint64("optseed", 0, "strategy-selection seed (must match optimize)")
	workers := wf.fs.Int("workers", 0, "cores (0 = all; results are identical for any value)")
	queryFile := wf.fs.String("queries", "", "file of extra query products to answer (one spec per line)")
	httpAddr := wf.fs.String("http", "", "run the HTTP answer-serving daemon on this address (e.g. :8080)")
	drain := wf.fs.Duration("drain", 30*time.Second, "how long the daemon waits for in-flight requests on shutdown")
	snapDir := wf.fs.String("snapshot-dir", "", "durable engine-snapshot directory: a restarted daemon recovers its engines without re-measuring")
	solveMaxIter := wf.fs.Int("solve-max-iter", 0, "cap on LSMR iterations or refinement steps for union-strategy reconstruction (0 = solver default); a registration whose solve hits the cap fails instead of serving unconverged answers")
	logFormat := wf.fs.String("log-format", "text", "daemon log format: text or json")
	logLevel := wf.fs.String("log-level", "info", "daemon log level: debug, info, warn, or error")
	pprofAddr := wf.fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = no profiling endpoint")
	slowReq := wf.fs.Duration("slow-request", 0, "log a warning with the per-stage breakdown for requests slower than this (0 = 1s default; negative = disabled)")
	wf.fs.SetOutput(stderr)
	if err := wf.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return usageError(err.Error())
	}
	if *httpAddr != "" {
		cfg := daemonConfig{
			cache:        *cache,
			snapDir:      *snapDir,
			eps:          *eps,
			delta:        *delta,
			seed:         *seed,
			restarts:     *restarts,
			optseed:      *optseed,
			workers:      *workers,
			drain:        *drain,
			solveMaxIter: *solveMaxIter,
			logFormat:    *logFormat,
			logLevel:     *logLevel,
			pprofAddr:    *pprofAddr,
			slowReq:      *slowReq,
		}
		if *queryFile != "" {
			return usageError("-queries applies to one-shot serve; the HTTP daemon answers query batches per request")
		}
		if *drain < 0 {
			return usageError("-drain must be non-negative (0 = shut down without waiting)")
		}
		switch {
		case wf.fs.NArg() > 1:
			return usageError("serve -http takes at most one data.csv argument")
		case wf.fs.NArg() == 1:
			if *wf.domain == "" || len(wf.queries) == 0 {
				return usageError("pre-registering a dataset requires -domain and -query")
			}
			cfg.domain, cfg.queries, cfg.dataPath = *wf.domain, wf.queries, wf.fs.Arg(0)
		case *wf.domain != "" || len(wf.queries) > 0:
			return usageError("serve -http with -domain/-query requires a data.csv argument to pre-register")
		}
		if cfg.dataPath == "" {
			// Without a pre-registered workload the budget/seed flags have
			// nothing to apply to (tenants carry their own budgets per
			// registration request); silently ignoring them would let an
			// operator believe -eps set a daemon-wide default.
			var stray []string
			wf.fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "eps", "delta", "seed", "restarts", "optseed":
					stray = append(stray, "-"+f.Name)
				}
			})
			if len(stray) > 0 {
				return usageError(strings.Join(stray, ", ") + " only apply to a pre-registered workload; tenants set budgets per registration request (add -domain/-query and a data.csv to pre-register)")
			}
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		// Once the first signal starts the graceful drain, restore default
		// signal handling so a second SIGINT/SIGTERM terminates the
		// process immediately instead of being swallowed for the rest of
		// the drain window.
		context.AfterFunc(ctx, stop)
		return serveDaemon(ctx, *httpAddr, cfg, stdout, stderr, nil)
	}
	if wf.fs.NArg() != 1 {
		return usageError("serve requires exactly one data.csv argument")
	}
	var daemonOnly []string
	wf.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "drain", "snapshot-dir", "solve-max-iter", "log-format", "log-level", "pprof-addr", "slow-request":
			daemonOnly = append(daemonOnly, "-"+f.Name)
		}
	})
	if len(daemonOnly) > 0 {
		return usageError(strings.Join(daemonOnly, ", ") + " only apply to the HTTP daemon (-http); one-shot serve answers and exits")
	}
	w, sizes, err := wf.workload()
	if err != nil {
		return err
	}
	records, err := readCSV(wf.fs.Arg(0), sizes)
	if err != nil {
		return err
	}
	x := w.Domain.DataVector(records)

	hdmm.SetWorkers(*workers)
	eng, err := hdmm.NewEngine(w, x, *eps, hdmm.EngineOptions{
		Selection: hdmm.SelectOptions{Restarts: *restarts, Seed: *optseed, Workers: *workers},
		CacheDir:  *cache,
		Delta:     *delta,
		Seed:      *seed,
		Workers:   *workers,
	})
	if err != nil {
		return err
	}
	source := "computed"
	if eng.FromCache() {
		source = "cache"
	}
	fmt.Fprintf(stderr, "strategy: %s (%s), predicted per-query RMSE at ε=%g: %.3f\n",
		eng.Operator(), source, *eps, eng.ExpectedRMSE())

	products := w.Products
	if *queryFile != "" {
		if products, err = readQueryFile(*queryFile, sizes); err != nil {
			return err
		}
	}
	parts, err := eng.AnswerCtx(context.Background(), products)
	if err != nil {
		return err
	}
	var answers []float64
	for _, p := range parts {
		answers = append(answers, p...)
	}
	return writeAnswers(stdout, answers)
}

// daemonConfig carries the serve flags into the HTTP daemon, plus the
// optional workload to pre-register at startup.
type daemonConfig struct {
	cache        string
	snapDir      string // durable engine-snapshot directory ("" = no durability)
	eps          float64
	delta        float64
	seed         uint64
	restarts     int
	optseed      uint64
	workers      int
	drain        time.Duration // shutdown grace for in-flight requests
	solveMaxIter int           // union-reconstruction iteration or step cap (0 = default)
	logFormat    string        // slog handler: "text" or "json" ("" = text)
	logLevel     string        // minimum level ("" = info)
	pprofAddr    string        // separate net/http/pprof address ("" = off)
	slowReq      time.Duration // slow-request log threshold (0 = server default)
	domain       string        // pre-registration workload ("" = none)
	queries      []string      // pre-registration product specs
	dataPath     string        // pre-registration dataset
}

// serveDaemon runs the HTTP answer-serving daemon on addr until ctx is
// cancelled (SIGINT/SIGTERM in production), then drains in-flight requests
// and exits cleanly. onReady, when non-nil, receives the bound address
// after every startup message has been written (tests listen on :0).
func serveDaemon(ctx context.Context, addr string, cfg daemonConfig, stdout, stderr io.Writer, onReady func(string)) error {
	hdmm.SetWorkers(cfg.workers)
	format, level := cfg.logFormat, cfg.logLevel
	if format == "" {
		format = "text"
	}
	if level == "" {
		level = "info"
	}
	logger, err := obs.NewLogger(stderr, format, level)
	if err != nil {
		return usageError(err.Error())
	}
	srv, err := hdmm.NewServer(hdmm.ServerConfig{
		CacheDir:             cfg.cache,
		SnapshotDir:          cfg.snapDir,
		Workers:              cfg.workers,
		SolveMaxIter:         cfg.solveMaxIter,
		Logger:               logger,
		SlowRequestThreshold: cfg.slowReq,
	})
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		// The profiling endpoint binds its own listener — typically a
		// loopback address — so exposing the API never exposes pprof. An
		// explicit mux rather than DefaultServeMux: nothing else this
		// process registers can leak onto the profiling port.
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("binding pprof listener: %w", err)
		}
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
		defer pprofSrv.Close()
		go func() { _ = pprofSrv.Serve(pln) }()
		fmt.Fprintf(stderr, "hdmm: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	// Bind before pre-registration: a busy or invalid address is the most
	// common daemon startup failure, and discovering it AFTER minutes of
	// strategy optimization would waste the work and discard a private
	// measurement whose printed engine key never becomes reachable.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	serving := false
	defer func() {
		if !serving {
			ln.Close()
		}
	}()
	if cfg.dataPath != "" {
		sizes, err := hdmm.ParseSizes(cfg.domain)
		if err != nil {
			return err
		}
		records, err := readCSV(cfg.dataPath, sizes)
		if err != nil {
			return err
		}
		if records == nil {
			records = [][]int{} // an empty dataset is a zero histogram, not a missing one
		}
		// Registration can optimize for minutes on a cold cache, and
		// NotifyContext has suppressed default signal termination — so the
		// wait must watch ctx or Ctrl-C would be dead until startup
		// finishes. The registration sees ctx too, so a signal stops it at
		// its privacy-safe points (before optimization, before the
		// measurement). Exiting abandons the goroutine; process teardown
		// reclaims its CPU.
		type preResult struct {
			resp *server.RegisterResponse
			err  error
		}
		done := make(chan preResult, 1)
		go func() {
			resp, err := srv.RegisterCtx(ctx, &server.RegisterRequest{
				Domain:   sizes,
				Queries:  cfg.queries,
				Records:  records,
				Eps:      cfg.eps,
				Delta:    cfg.delta,
				Seed:     cfg.seed,
				Restarts: cfg.restarts,
				OptSeed:  cfg.optseed,
			})
			done <- preResult{resp, err}
		}()
		var resp *server.RegisterResponse
		select {
		case <-ctx.Done():
			return errors.New("interrupted during startup pre-registration")
		case pr := <-done:
			if pr.err != nil {
				return pr.err
			}
			resp = pr.resp
		}
		source := "computed"
		if resp.FromCache {
			source = "cache"
		}
		fmt.Fprintf(stderr, "pre-registered engine: strategy %s (%s), predicted per-query RMSE at ε=%g: %.3f\n",
			resp.Operator, source, cfg.eps, resp.ExpectedRMSE)
		fmt.Fprintln(stdout, resp.Key)
	}

	serving = true
	fmt.Fprintf(stderr, "hdmm: serving HTTP on %s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	httpSrv := &http.Server{
		Handler: srv,
		// A long-running public daemon must bound slow clients: without
		// these a peer trickling header bytes (slowloris) or idling
		// keep-alive connections pins a goroutine and fd per connection
		// forever. Body reads stay untimed — large data-vector uploads are
		// legitimate — and are bounded by the server's MaxBodyBytes cap.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// cfg.drain is honored as given: 0 means shut down without
		// waiting (the already-expired context makes Shutdown close
		// listeners and return immediately).
		drain := cfg.drain
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := httpSrv.Shutdown(shutdownCtx)
		<-errc // Serve has returned http.ErrServerClosed
		switch {
		case err == nil:
			fmt.Fprintln(stderr, "hdmm: shut down cleanly")
			return nil
		case errors.Is(err, context.DeadlineExceeded):
			// A registration mid-optimization can outlive any reasonable
			// grace period; the daemon drained what it could and cutting
			// the stragglers is the intended outcome, not a failure.
			fmt.Fprintf(stderr, "hdmm: shut down after draining for %s (some requests were still in flight)\n", drain)
			return nil
		default:
			return fmt.Errorf("shutting down: %w", err)
		}
	}
}

// cmdRun is the legacy one-shot mode: select, measure, answer in one go.
func cmdRun(args []string, stdout, stderr io.Writer) error {
	wf := newWorkloadFlags("run")
	eps := wf.fs.Float64("eps", 1.0, "privacy budget ε")
	seed := wf.fs.Uint64("seed", 0, "noise seed (0 = fresh entropy per run; non-zero = reproducible noise)")
	restarts := wf.fs.Int("restarts", 5, "strategy-selection restarts")
	workers := wf.fs.Int("workers", 0, "cores for strategy selection and numeric kernels (0 = all; results are identical for any value)")
	wf.fs.SetOutput(stderr)
	if err := wf.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return usageError(err.Error())
	}
	if wf.fs.NArg() != 1 {
		return usageError("usage: hdmm [run|optimize|serve] -domain n1,n2,... -query spec [-query spec ...] [-eps ε] data.csv")
	}
	w, sizes, err := wf.workload()
	if err != nil {
		return err
	}
	records, err := readCSV(wf.fs.Arg(0), sizes)
	if err != nil {
		return err
	}
	x := w.Domain.DataVector(records)

	hdmm.SetWorkers(*workers) // kernel-level bound; Selection.Workers bounds the restart fan-out
	res, err := hdmm.Run(w, x, *eps, hdmm.Options{
		Seed:      *seed,
		Selection: hdmm.SelectOptions{Restarts: *restarts, Workers: *workers},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "strategy: %s, predicted per-query RMSE at ε=%g: %.3f\n",
		res.Operator, *eps, res.ExpectedRMSE)
	return writeAnswers(stdout, res.Answers)
}

func writeAnswers(w io.Writer, answers []float64) error {
	out := bufio.NewWriter(w)
	for _, a := range answers {
		fmt.Fprintf(out, "%.3f\n", a)
	}
	return out.Flush()
}

// readQueryFile parses one product spec per line ("I,R"); blank lines and
// #-comments are skipped.
func readQueryFile(path string, sizes []int) ([]hdmm.Product, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var products []hdmm.Product
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		p, err := hdmm.ParseProduct(text, sizes)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		products = append(products, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(products) == 0 {
		return nil, fmt.Errorf("%s: no query products", path)
	}
	return products, nil
}

func readCSV(path string, sizes []int) ([][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records [][]int
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != len(sizes) {
			return nil, fmt.Errorf("line %d: %d fields, want %d", line, len(parts), len(sizes))
		}
		rec := make([]int, len(parts))
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 0 || v >= sizes[i] {
				return nil, fmt.Errorf("line %d field %d: bad value %q for attribute of size %d", line, i, p, sizes[i])
			}
			rec[i] = v
		}
		records = append(records, rec)
	}
	return records, sc.Err()
}
