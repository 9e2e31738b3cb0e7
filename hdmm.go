// Package hdmm is a Go implementation of the High-Dimensional Matrix
// Mechanism (McKenna, Miklau, Hay, Machanavajjhala: "Optimizing error of
// high-dimensional statistical queries under differential privacy",
// PVLDB 11(10), 2018).
//
// HDMM answers a workload of predicate counting queries over a
// multi-dimensional categorical domain under ε-differential privacy. It
// encodes the workload implicitly as a weighted union of Kronecker products
// (never materializing the m×N workload matrix), searches a restricted
// strategy space for a measurement strategy with minimal expected total
// squared error, measures the strategy privately with the Laplace
// mechanism, and reconstructs workload answers by least squares.
//
// Typical use:
//
//	dom := hdmm.NewDomain(
//		hdmm.Attribute{Name: "sex", Size: 2},
//		hdmm.Attribute{Name: "age", Size: 115},
//	)
//	w, _ := hdmm.NewWorkload(dom,
//		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(115)),
//	)
//	res, _ := hdmm.Run(w, dom.DataVector(records), 1.0, hdmm.Options{Seed: 7})
//	fmt.Println(res.Answers)
//
// Strategy selection never looks at the data, so it consumes no privacy
// budget; the Laplace measurement is the only data access and the whole
// pipeline satisfies ε-differential privacy (Theorem 7 of the paper).
package hdmm

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kron"
	"repro/internal/mech"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/workload"
)

// Attribute is a named categorical attribute with a finite domain size.
type Attribute = schema.Attribute

// Domain is an ordered list of attributes defining dom(R) and the
// data-vector indexing.
type Domain = schema.Domain

// NewDomain builds a domain from attributes.
func NewDomain(attrs ...Attribute) *Domain { return schema.NewDomain(attrs...) }

// PredicateSet is a set of 0/1 predicates over one attribute.
type PredicateSet = workload.PredicateSet

// Predicate-set building blocks (Section 3.3 of the paper).
var (
	// Identity returns one point predicate per domain element (I).
	Identity = workload.Identity
	// Total returns the single always-true predicate (T).
	Total = workload.Total
	// Prefix returns the CDF workload of all prefixes (P).
	Prefix = workload.Prefix
	// AllRange returns all n(n+1)/2 interval queries (R).
	AllRange = workload.AllRange
	// WidthRange returns all intervals of one fixed width.
	WidthRange = workload.WidthRange
	// Permute relabels the domain of a predicate set.
	Permute = workload.Permute
	// NewExplicit wraps an arbitrary 0/1 predicate matrix.
	NewExplicit = workload.NewExplicit
)

// Product is one Kronecker-product term of a workload.
type Product = workload.Product

// Textual workload-spec parsing, shared by the CLI flags, serve -queries
// files, and the HTTP API: "I,R" is a product spec (one predicate-set spec
// per attribute), with building blocks I, T, P, R, W<k>.

// ParseSpec parses one per-attribute predicate-set spec ("R") for an
// attribute of size n.
func ParseSpec(s string, n int) (PredicateSet, error) { return workload.ParseSpec(s, n) }

// ParseProduct parses a comma-joined product spec ("I,R") against the
// domain's attribute sizes.
func ParseProduct(q string, sizes []int) (Product, error) { return workload.ParseProduct(q, sizes) }

// ParseSizes parses a comma-separated domain-size list ("2,115").
func ParseSizes(s string) ([]int, error) { return workload.ParseSizes(s) }

// NewProduct builds a weight-1 product from per-attribute predicate sets.
func NewProduct(terms ...PredicateSet) Product { return workload.NewProduct(terms...) }

// Workload is a weighted union of products over a common domain — the
// logical workload representation of Definition 3.
type Workload = workload.Workload

// NewWorkload validates and builds a workload.
func NewWorkload(dom *Domain, products ...Product) (*Workload, error) {
	return workload.New(dom, products...)
}

// Marginals workload builders (Section 6.3 / Table 5).
var (
	Marginal           = workload.Marginal
	AllMarginals       = workload.AllMarginals
	KWayMarginals      = workload.KWayMarginals
	UpToKWayMarginals  = workload.UpToKWayMarginals
	AllRangeMarginals  = workload.AllRangeMarginals
	KWayRangeMarginals = workload.KWayRangeMarginals
)

// Strategy is a selected measurement strategy.
type Strategy = core.Strategy

// ErrNotConverged is returned (wrapped) when an iterative union-strategy
// reconstruction stops on its iteration budget instead of converging. The
// pipeline never silently serves an unconverged estimate: Run, NewEngine,
// and the HTTP daemon all surface this error. Test with errors.Is.
var ErrNotConverged = core.ErrNotConverged

// SelectOptions controls strategy selection (Algorithm 2). The zero value
// uses sensible defaults (5 restarts, all operators enabled, and Workers =
// runtime.GOMAXPROCS(0) — restarts, block subproblems and large matrix
// kernels run on all cores). Selection is deterministic for a fixed Seed:
// the selected strategy is bit-identical for every Workers value, so results
// can be reproduced on any machine by pinning the seed alone.
type SelectOptions = core.HDMMOptions

// Selected is the result of strategy selection: the strategy, its expected
// total squared error ‖W·A⁺‖²_F (multiply by 2/ε² for the error at a given
// budget), and the operator that produced it.
type Selected = core.Selected

// Select runs OPT_HDMM strategy selection for the workload. It never
// touches data and consumes no privacy budget.
func Select(w *Workload, opts SelectOptions) (*Selected, error) {
	return core.Select(w, opts)
}

// SetWorkers bounds the cores used by the process-wide numeric kernels —
// dense GEMM sharding, Kronecker matrix–vector products, and LSMR's vector
// updates — and returns the previous bound. It complements
// SelectOptions.Workers, which bounds the algorithmic fan-out (restarts and
// block subproblems) per Select call; set both to 1 to pin the whole
// pipeline to a single core. n <= 0 restores the default,
// runtime.GOMAXPROCS(0). All results are bit-identical for any value.
func SetWorkers(n int) int { return kron.SetWorkers(n) }

// Options configures an end-to-end Run.
type Options struct {
	// Selection controls strategy search; zero value = defaults.
	Selection SelectOptions
	// Seed makes the private noise reproducible: a non-zero value selects a
	// deterministic noise stream. Zero (the default) is the production path:
	// the noise source is seeded from crypto/rand, so separate runs release
	// independent noise.
	Seed uint64
}

// Result is the outcome of an end-to-end private run.
type Result struct {
	// Xhat is the differentially private estimate of the data vector;
	// any further query evaluated on it is privacy-free post-processing.
	Xhat []float64
	// Answers holds the private workload answers W·x̂.
	Answers []float64
	// Strategy and Operator identify the selected measurement strategy.
	Strategy Strategy
	Operator string
	// ExpectedRMSE is the predicted per-query root-mean-squared error of
	// the workload answers at the requested ε.
	ExpectedRMSE float64
}

// Run executes the complete HDMM pipeline of Table 1(b): ImpVec (the
// workload is already implicit), OPT_HDMM strategy selection, Laplace
// measurement with budget eps, least-squares reconstruction, and workload
// answering. The output satisfies ε-differential privacy.
//
// Run is NewEngine followed by answering the workload on the engine's
// estimate, so it resolves the strategy through the same process-wide
// in-memory registry: a Run after Optimize or NewEngine with equal
// selection options reuses that strategy instead of re-selecting. The
// registry key covers every option that can change the selected strategy,
// so the released bytes are the same either way. Callers that only want
// x̂ (a workload too large to enumerate) use NewEngine directly.
func Run(w *Workload, x []float64, eps float64, opts Options) (*Result, error) {
	return run(w, x, eps, 0, opts)
}

// run is the pipeline behind Run and RunGaussian: the serving engine
// validates the budget and the data vector before anything is spent, then
// selects (or reuses), measures once and reconstructs; the workload is
// answered on its estimate.
func run(w *Workload, x []float64, eps, delta float64, opts Options) (*Result, error) {
	eng, err := NewEngine(w, x, eps, EngineOptions{Selection: opts.Selection, Delta: delta, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	answers, err := mech.AnswerWorkload(w, eng.Xhat())
	if err != nil {
		return nil, err
	}
	return &Result{
		Xhat:         eng.Xhat(),
		Answers:      answers,
		Strategy:     eng.Strategy(),
		Operator:     eng.Operator(),
		ExpectedRMSE: eng.ExpectedRMSE(),
	}, nil
}

// Engine is the answer-serving runtime: it resolves a measurement strategy
// through the strategy registry (reusing one optimized earlier for the same
// workload and selection options — in this process via the in-memory LRU,
// or in any process via the on-disk store at EngineOptions.CacheDir),
// measures the data once, and then answers unlimited batched query
// requests concurrently as privacy-free post-processing.
type Engine = serve.Engine

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Selection controls strategy search on a cache miss.
	Selection SelectOptions
	// CacheDir is the on-disk strategy registry shared with Optimize and
	// other processes ("" = the process-wide in-memory registry only).
	CacheDir string
	// Delta selects the mechanism: 0 = ε-DP Laplace, (0,1) = (ε,δ)-DP
	// Gaussian (requires ε ≤ 1).
	Delta float64
	// Seed makes the private noise reproducible: for a NON-ZERO seed,
	// answers are byte-identical to Run/RunGaussian with the same seed and
	// selection options. Zero (the default) is the production path and
	// draws fresh entropy from crypto/rand, so no two engines or runs
	// share noise.
	Seed uint64
	// Workers bounds the goroutines answering one batch (<= 0: all cores);
	// answers are bit-identical for any value.
	Workers int
}

// NewEngine builds a serving engine for the workload at privacy budget eps:
// optimize (or load) once, measure once, answer many.
func NewEngine(w *Workload, x []float64, eps float64, opts EngineOptions) (*Engine, error) {
	reg, err := registry.Shared(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	return serve.NewEngineCtx(context.Background(), w, x, eps, serve.Options{
		Selection: opts.Selection,
		Delta:     opts.Delta,
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		Registry:  reg,
	})
}

// Server is the HTTP answer-serving daemon (hdmm serve -http): a pool of
// serving engines — one per registered tenant — behind one JSON API and one
// shared strategy registry. It implements http.Handler; see
// internal/server's package documentation for the endpoint reference.
type Server = server.Server

// ServerConfig configures the HTTP answer-serving daemon: strategy-cache
// placement (CacheDir), the durable engine-snapshot store
// (SnapshotDir — crash recovery without re-measuring; see the server
// package docs), the per-engine answering fan-out (Workers), the
// request-body cap (MaxBodyBytes), and the engine-pool cap (MaxEngines).
type ServerConfig = server.Config

// NewServer builds the HTTP answer-serving daemon. Mount it on any
// http.Server or run it via `hdmm serve -http ADDR`.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Wire and programmatic types of the answer-serving daemon, re-exported so
// embedders can call Server.RegisterCtx/AnswerCtx/Info directly (the CLI's
// pre-registration path does) instead of synthesizing HTTP requests.
type (
	// RegisterRequest registers one tenant: workload, data, budget.
	RegisterRequest = server.RegisterRequest
	// RegisterResponse reports the registered engine and its provenance.
	RegisterResponse = server.RegisterResponse
	// AnswerRequest is a batch of product specs for a registered engine.
	AnswerRequest = server.AnswerRequest
	// AnswerResponse carries one answer vector per requested product.
	AnswerResponse = server.AnswerResponse
	// EngineInfo is the metadata document of one registered engine.
	EngineInfo = server.EngineInfo
	// ServerMetrics is the /metrics observability document.
	ServerMetrics = server.MetricsResponse
)

// Optimize runs strategy selection for (w, opts) and persists the winner in
// the strategy registry at cacheDir ("" = the process-wide in-memory
// registry only), so later Engine constructions and Runs — in this process,
// or in any other sharing the cache directory — load it instead of
// re-optimizing. It returns the registry cache key, the selection, and
// whether the strategy came from the cache (true) or was optimized by this
// call (false). Selection never looks at data and consumes no privacy
// budget.
func Optimize(w *Workload, cacheDir string, opts SelectOptions) (key string, sel *Selected, fromCache bool, err error) {
	reg, err := registry.Shared(cacheDir)
	if err != nil {
		return "", nil, false, err
	}
	key = registry.Key(w, opts)
	rec, fromCache, err := reg.GetOrCompute(key, func() (*registry.Record, error) {
		return core.Select(w, opts) // registry.Record is core.Selected
	})
	if err != nil {
		return "", nil, false, err
	}
	return key, rec, fromCache, nil
}

// Fingerprint returns the canonical hex fingerprint of a workload's
// structure: invariant to product order, sensitive to domain shape, query
// structure, and weights. Two workloads with equal fingerprints are
// answered by the same cached strategies.
func Fingerprint(w *Workload) string { return registry.FingerprintHex(w) }

// StrategyKey returns the content address under which the strategy selected
// for (w, opts) is cached by the registry. Options that cannot change the
// selection (Workers) do not affect the key.
func StrategyKey(w *Workload, opts SelectOptions) string { return registry.Key(w, opts) }

// WeightForRelativeError reweights a workload inversely with average query
// support, the Section 9 heuristic that approximately optimizes relative
// (instead of absolute) error for near-uniform data.
func WeightForRelativeError(w *Workload) *Workload {
	return workload.WeightForRelativeError(w)
}

// RunGaussian is Run under (ε,δ)-differential privacy: measurement uses the
// Gaussian mechanism calibrated to the strategy's L2 sensitivity instead of
// Laplace noise on its L1 sensitivity. Strategy selection is unchanged.
// The classic calibration is only valid for ε ≤ 1, so larger budgets are
// rejected (use Run's Laplace mechanism for high-ε deployments).
func RunGaussian(w *Workload, x []float64, eps, delta float64, opts Options) (*Result, error) {
	if !(delta > 0) {
		return nil, fmt.Errorf("hdmm: RunGaussian needs δ in (0, 1), got %v (use Run for the Laplace mechanism)", delta)
	}
	return run(w, x, eps, delta, opts)
}

// ExpectedError returns the expected total squared error of answering w
// from strategy a at privacy budget eps: (2/ε²)·‖A‖₁²·‖W·A⁺‖²_F.
func ExpectedError(w *Workload, a Strategy, eps float64) (float64, error) {
	e, err := a.Error(w)
	if err != nil {
		return 0, err
	}
	return 2 * e / (eps * eps), nil
}

// Ratio computes the error ratio of Section 8.1 between a competing
// mechanism's expected total squared error and HDMM's:
// Ratio = sqrt(errOther/errHDMM). Both must be at matching ε conventions.
func Ratio(errOther, errHDMM float64) float64 {
	return math.Sqrt(errOther / errHDMM)
}

// AnswerWorkload evaluates all workload queries on a data vector (or on a
// private estimate Xhat — post-processing).
func AnswerWorkload(w *Workload, x []float64) ([]float64, error) {
	return mech.AnswerWorkload(w, x)
}
