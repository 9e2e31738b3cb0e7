// Package server exposes the answer-serving runtime over HTTP: a pool of
// serving engines — one per registered tenant (workload + privacy budget +
// data vector) — behind one JSON API and one shared strategy registry.
//
// HDMM's cost structure is "optimize once, measure once, answer many"
// (Table 1(b) of McKenna et al.): everything after the single private
// measurement is privacy-free post-processing, which is exactly the shape
// of a long-running multi-tenant query service. The daemon holds that
// lifecycle behind four endpoints:
//
//	POST /v1/engines              register a tenant; loads or optimizes the
//	                              strategy through the shared registry,
//	                              measures once, returns the engine key
//	POST /v1/engines/{key}/answer answer a batch of query products
//	GET  /v1/engines/{key}        engine metadata
//	GET  /healthz                 liveness
//	GET  /metrics                 request counts, latencies, cache hit ratio
//
// Tenants registering the same workload shape and selection options share
// one cached strategy (content-addressed by registry.Key) even at different
// budgets, seeds, or data — strategy selection is data-independent, so this
// sharing leaks nothing. Registration is idempotent: the engine key is
// derived from the strategy key plus the measurement parameters and a data
// digest, and concurrent registrations of the same tenant collapse into one
// construction (one optimization, one measurement).
package server

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// unset: large enough for multi-million-cell data vectors, small enough to
// bound a hostile request.
const DefaultMaxBodyBytes = 64 << 20

// DefaultMaxEngines caps the engine pool when Config.MaxEngines is unset.
// Each engine pins a domain-sized private estimate for the life of the
// process, so the pool must not grow with registration traffic.
const DefaultMaxEngines = 256

// DefaultMaxDomainCells caps the flattened domain size of one registration
// when Config.MaxDomainCells is unset (2²² cells ≈ 34 MB of x̂). The data
// path is implicitly bounded by the body cap, but the records path is not:
// without this, a 70-byte request declaring domain [10⁹] would make the
// daemon allocate the histogram — and run strategy selection — at that
// size. Comfortably above every workload in the paper (§8 tops out near
// a million cells).
const DefaultMaxDomainCells = 1 << 22

// DefaultMaxAttrSize caps one attribute's size when Config.MaxAttrSize is
// unset. The flattened-cell cap alone is not enough: strategy selection
// materializes dense n×n per-attribute Grams (and p×n OPT₀ iterates), so
// memory scales with the square of a single attribute's size — a domain of
// [200000] sits far under the cell cap yet would demand a 320 GB Gram.
// 4096 bounds the transient per-attribute work at ~128 MB and exceeds
// every per-attribute size in the paper.
const DefaultMaxAttrSize = 4096

// DefaultMaxWorkloadProducts caps the number of query products one
// registration may declare when Config.MaxWorkloadProducts is unset.
// Selection cost and Gram-cache memory scale with the product count, so a
// body-cap-sized request listing millions of tiny specs must not buy
// minutes of optimizer CPU. Far above the paper's workloads (tens of
// union terms at most).
const DefaultMaxWorkloadProducts = 1024

// DefaultMaxRestarts caps a registration's requested strategy-selection
// restarts when Config.MaxRestarts is unset. Restarts multiply optimizer
// CPU linearly and participate in the strategy key (each distinct value is
// a cache miss), so an unbounded client-controlled value would let one
// small request pin every core for hours. The paper's experiments use 25.
const DefaultMaxRestarts = 100

// DefaultMaxAnswerValues caps the total answer values one /answer request
// may demand when Config.MaxAnswerValues is unset. A product's row count
// is the PRODUCT of its per-attribute predicate counts — each factor is
// individually bounded, but "R,R" over a [510,510] domain (admissible
// under every registration cap) multiplies out to 130305² ≈ 1.7·10¹⁰ rows,
// a 136 GB allocation from a 30-byte request. 2²⁰ values ≈ 8 MB of floats
// (~20 MB as JSON) per response.
const DefaultMaxAnswerValues = 1 << 20

// DefaultSlowRequestThreshold is the latency past which a request gets a
// warn-level log line with its per-stage span breakdown, when
// Config.SlowRequestThreshold is unset. One second separates "an answer
// batch" (micro- to milliseconds) from "a registration that had to
// optimize" — the requests whose internal breakdown an operator actually
// wants in the log.
const DefaultSlowRequestThreshold = time.Second

// Config configures the HTTP answer-serving daemon.
type Config struct {
	// CacheDir is the on-disk strategy registry shared by every engine the
	// server hosts ("" = in-memory only). Strategies optimized by `hdmm
	// optimize` into the same directory are loaded, never recomputed.
	CacheDir string
	// SnapshotDir is the durable engine-snapshot store ("" = no
	// durability). Every registration that takes a measurement persists
	// its engine state there crash-safely, and a restarted daemon
	// rehydrates those engines byte-identically — no optimizer restart, no
	// new measurement, no new noise draw. When the directory is
	// unavailable or a snapshot is corrupt the daemon serves from memory
	// and surfaces a degraded flag in /healthz and /metrics; corrupt
	// snapshots are quarantined, never deleted and never recomputed
	// (recomputing would spend privacy budget a second time).
	SnapshotDir string
	// Workers bounds each engine's answering fan-out and strategy-selection
	// parallelism (<= 0 = all cores). Answers are bit-identical for any
	// value.
	Workers int
	// MaxBodyBytes caps request bodies (<= 0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxEngines caps the engine pool (<= 0 = DefaultMaxEngines).
	// Registrations of new tenants beyond the cap are rejected with 503 —
	// never evicted, since evicting an engine would force a re-measurement
	// (extra privacy budget) to serve that tenant again.
	MaxEngines int
	// MaxDomainCells caps one registration's flattened domain size
	// (<= 0 = DefaultMaxDomainCells). Memory per engine is 8 bytes per
	// cell, held for the life of the process.
	MaxDomainCells int
	// MaxAttrSize caps a single attribute's size (<= 0 =
	// DefaultMaxAttrSize); strategy selection's memory is quadratic in it.
	MaxAttrSize int
	// MaxAnswerValues caps the total float64 values one /answer request
	// may allocate — answer rows plus the dense per-attribute query
	// matrices evaluation materializes (<= 0 = DefaultMaxAnswerValues).
	MaxAnswerValues int
	// MaxWorkloadProducts caps the number of query products one
	// registration may declare (<= 0 = DefaultMaxWorkloadProducts).
	MaxWorkloadProducts int
	// MaxRestarts caps a registration's requested strategy-selection
	// restarts (<= 0 = DefaultMaxRestarts).
	MaxRestarts int
	// SolveMaxIter caps the LSMR iterations of a union strategy's
	// reconstruction during registration (0 = solver default). When the cap
	// binds, registration fails with a 500 wrapping core.ErrNotConverged
	// rather than serving answers from an unconverged estimate.
	SolveMaxIter int
	// Logger receives the daemon's structured logs (nil = text handler on
	// os.Stderr at info level).
	Logger *slog.Logger
	// SlowRequestThreshold is the request latency past which the daemon
	// logs a warn line with the request's per-stage span breakdown
	// (0 = DefaultSlowRequestThreshold; negative disables slow-request
	// logging entirely).
	SlowRequestThreshold time.Duration
}

// Server is the HTTP answer-serving daemon. It implements http.Handler.
type Server struct {
	cfg    Config
	reg    *registry.Registry
	pool   *serve.Pool
	mux    *http.ServeMux
	met    *metrics
	log    *slog.Logger
	slow   time.Duration // slow-request log threshold (<= 0: disabled)
	secret [32]byte      // key-derivation secret; persisted with the snapshots (see engineKey)

	// regSpans remembers each fresh registration's stage-by-stage timing,
	// keyed by engine key, for GET /v1/engines/{key} — "where did this
	// tenant's registration spend its time" must remain answerable after
	// the fact. Engines restored from snapshots have no entry (they ran no
	// pipeline in this process).
	regSpans sync.Map // string -> registrationTrace

	// snaps is the durable engine store (nil when SnapshotDir is "" or the
	// store could not be opened — the latter serves degraded from memory).
	snaps *snapshot.Store
}

// registrationTrace is the retained breakdown of one fresh registration.
type registrationTrace struct {
	stages []StageTiming
	wallMs float64
}

// StageTiming is one pipeline stage's share of a registration, reported in
// EngineInfo.Stages. Ms is exclusive time: nested stages (the union solve
// inside a registration, say) are not double-counted, so the stage values
// sum to approximately the registration's wall time.
type StageTiming struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
	Count int     `json:"count"`
}

// New builds a Server for cfg, backed by the process-wide shared registry
// for cfg.CacheDir.
func New(cfg Config) (*Server, error) {
	reg, err := registry.Shared(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	return NewWithRegistry(cfg, reg)
}

// NewWithRegistry builds a Server backed by an explicit registry instance.
// Callers outside the module go through New — this constructor exists for
// tests and in-module embedders composing their own cache topology, and is
// deliberately not re-exported by the public hdmm package.
func NewWithRegistry(cfg Config, reg *registry.Registry) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxEngines <= 0 {
		cfg.MaxEngines = DefaultMaxEngines
	}
	if cfg.MaxDomainCells <= 0 {
		cfg.MaxDomainCells = DefaultMaxDomainCells
	}
	if cfg.MaxAttrSize <= 0 {
		cfg.MaxAttrSize = DefaultMaxAttrSize
	}
	if cfg.MaxAnswerValues <= 0 {
		cfg.MaxAnswerValues = DefaultMaxAnswerValues
	}
	if cfg.MaxWorkloadProducts <= 0 {
		cfg.MaxWorkloadProducts = DefaultMaxWorkloadProducts
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = DefaultMaxRestarts
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	slow := cfg.SlowRequestThreshold
	switch {
	case slow == 0:
		slow = DefaultSlowRequestThreshold
	case slow < 0:
		slow = 0 // explicit opt-out
	}
	s := &Server{
		cfg:  cfg,
		reg:  reg,
		pool: serve.NewPool(cfg.MaxEngines),
		mux:  http.NewServeMux(),
		met:  newMetrics(),
		log:  logger,
		slow: slow,
	}
	if _, err := crand.Read(s.secret[:]); err != nil {
		return nil, fmt.Errorf("server: reading key-derivation secret: %w", err)
	}
	if cfg.SnapshotDir != "" {
		s.openSnapshots(cfg.SnapshotDir)
	}
	s.mux.Handle("POST /v1/engines", s.instrument("register", s.handleRegister))
	s.mux.Handle("POST /v1/engines/{key}/answer", s.instrument("answer", s.handleAnswer))
	s.mux.Handle("GET /v1/engines/{key}", s.instrument("engine_get", s.handleEngineGet))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// openSnapshots attaches the durable engine store and runs boot-time
// recovery. Every failure path here DEGRADES rather than aborts: a daemon
// that cannot reach its snapshot directory still serves — new engines live
// in memory only — because refusing to start would turn a disk problem
// into an outage, while re-measuring would turn it into a privacy bug.
func (s *Server) openSnapshots(dir string) {
	st, err := snapshot.Open(dir, nil)
	if err != nil {
		s.log.Error("snapshot store unavailable, serving without durability", "dir", dir, "err", err)
		return // s.snaps stays nil; degraded() reports it
	}
	s.snaps = st
	// The key-derivation secret must survive restarts: engine keys mix it,
	// so a fresh secret would make an idempotent re-registration of a
	// recovered tenant derive a NEW key, miss the pool, and take a second
	// measurement. Recovery itself is immune (snapshots store final keys).
	if sec, err := st.LoadOrCreateSecret(); err != nil {
		s.log.Error("key-derivation secret unavailable, re-registrations will not reuse recovered engines", "err", err)
		st.MarkDegraded("key-derivation secret unavailable")
	} else {
		s.secret = sec
	}
	n, err := st.Recover(func(sn *snapshot.Snapshot) error {
		eng, err := serve.Restore(sn, s.cfg.Workers)
		if err != nil {
			return err // semantic validation failure: the store quarantines it
		}
		if err := s.pool.Add(sn.Key, eng); err != nil {
			// A full pool (limit shrank across the restart) is not a
			// corrupt snapshot: leave the file for a roomier boot.
			st.MarkDegraded("engine pool full during snapshot recovery")
			return snapshot.ErrSkip
		}
		// Re-seed the strategy registry so re-registrations and metadata
		// lookups hit the cache. Best-effort: the engine is whole without
		// it (the strategy rides inside the snapshot).
		if err := s.reg.Put(sn.StrategyKey, sn.Record); err != nil {
			s.log.Warn("re-seeding strategy failed", "strategy_key", sn.StrategyKey, "err", err)
		}
		return nil
	})
	if err != nil {
		s.log.Error("snapshot recovery aborted, serving from memory", "err", err)
		return
	}
	if n > 0 {
		s.log.Info("recovered engines from snapshots", "engines", n, "dir", dir)
	}
}

// degraded reports whether durable state is configured but not fully
// healthy: the store would not open, a snapshot failed to persist, or
// recovery quarantined (or could not adopt) a file. Surfaced on /healthz
// and /metrics so operators see silent durability loss before a crash
// turns it into re-spent budget.
func (s *Server) degraded() bool {
	if s.cfg.SnapshotDir == "" {
		return false
	}
	return s.snaps == nil || s.snaps.Stats().Degraded
}

// degradedReason names WHY the daemon is degraded ("" when healthy): the
// first event that latched the flag, which is the root cause an operator
// needs — later failures usually cascade from it.
func (s *Server) degradedReason() string {
	if s.cfg.SnapshotDir == "" {
		return ""
	}
	if s.snaps == nil {
		return "snapshot store unavailable"
	}
	return s.snaps.Stats().DegradedReason
}

// RegisterRequest registers one tenant: a workload over a domain, the data
// vector it is answered from, and the privacy budget of the one
// measurement. Exactly one of Data (the histogram over the flattened
// domain, length = product of the domain sizes) or Records (raw tuples,
// one value per attribute) must be set.
type RegisterRequest struct {
	Domain  []int    `json:"domain"`  // attribute sizes, e.g. [2,115]
	Queries []string `json:"queries"` // product specs, e.g. ["I,R","T,P"]

	Data    []float64 `json:"data,omitempty"`
	Records [][]int   `json:"records,omitempty"`

	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta,omitempty"` // 0 = Laplace, (0,1) = Gaussian (requires eps <= 1)
	Seed  uint64  `json:"seed,omitempty"`  // 0 = fresh entropy (production); non-zero = reproducible noise

	Restarts int    `json:"restarts,omitempty"` // strategy-selection restarts on a cache miss (default 5)
	OptSeed  uint64 `json:"opt_seed,omitempty"` // strategy-selection seed
}

// RegisterResponse reports the registered engine.
type RegisterResponse struct {
	Key          string  `json:"key"`           // engine key for /answer and metadata
	StrategyKey  string  `json:"strategy_key"`  // registry content address of the strategy
	Operator     string  `json:"operator"`      // which optimizer produced the strategy
	ExpectedRMSE float64 `json:"expected_rmse"` // predicted per-query RMSE at the tenant's budget
	FromCache    bool    `json:"from_cache"`    // strategy loaded from the registry, not optimized now
	Reused       bool    `json:"reused"`        // this registration took no new measurement (existing engine, or shared a concurrent identical registration's build)
	NumQueries   int     `json:"num_queries"`
	Domain       []int   `json:"domain"`
}

// AnswerRequest is a batch of query products evaluated on a registered
// engine's private estimate — unlimited post-processing, no privacy cost.
type AnswerRequest struct {
	Queries []string `json:"queries"` // product specs over the engine's domain
}

// AnswerResponse returns one answer vector per requested product, in
// request order (the product's queries in row-major order, scaled by its
// weight). Fixed-seed responses are byte-identical to in-process
// Engine.AnswerSharedCtx at any worker count.
type AnswerResponse struct {
	Answers [][]float64 `json:"answers"`
}

// EngineInfo is the metadata document of one registered engine.
type EngineInfo struct {
	Key          string  `json:"key"`
	StrategyKey  string  `json:"strategy_key"`
	Operator     string  `json:"operator"`
	ExpectedRMSE float64 `json:"expected_rmse"`
	FromCache    bool    `json:"from_cache"`
	Eps          float64 `json:"eps"`
	Delta        float64 `json:"delta"`
	Domain       []int   `json:"domain"`
	NumQueries   int     `json:"num_queries"`
	// Solver fields describe the union-reconstruction LSMR solve that built
	// this engine's estimate; omitted for closed-form strategies (Kronecker,
	// marginals) and for engines rehydrated from snapshots, which restore
	// the estimate without re-running the solve.
	SolverIters          int     `json:"solver_iters,omitempty"`
	SolverResid          float64 `json:"solver_resid,omitempty"`
	SolverPreconditioned bool    `json:"solver_preconditioned,omitempty"`
	// Stages is the registration's stage-by-stage exclusive wall time and
	// RegisterWallMs its total, timed from the start of the request's
	// trace (for HTTP registrations, before the body is decoded) to the
	// engine's completion, so the snapshot save and the response are
	// outside it; omitted for engines rehydrated from snapshots, which
	// ran no pipeline in this process.
	Stages         []StageTiming `json:"stages,omitempty"`
	RegisterWallMs float64       `json:"register_wall_ms,omitempty"`
}

// MetricsResponse is the /metrics document (JSON form; the endpoint
// defaults to Prometheus text exposition and serves this shape when the
// request Accepts application/json).
type MetricsResponse struct {
	Version string `json:"version"`
	// Kernels is the kernels' arithmetic contract, always "reference"
	// (mat.Arithmetic). Also a label on hdmm_build_info.
	Kernels       string                   `json:"kernels"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Engines       int                      `json:"engines"`
	StrategyCache CacheStats               `json:"strategy_cache"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Stages reports the cumulative per-stage pipeline timing histograms as
	// derived stats, one entry per stage in pipeline order (zero-valued for
	// stages no request has exercised yet).
	Stages []StageStats `json:"stages"`
	// Solver reports the union-reconstruction LSMR counters; nil until a
	// registration has run (or failed) an iterative union solve.
	Solver *SolverStats `json:"solver,omitempty"`
	// Snapshots reports the durable store's counters; nil when no
	// SnapshotDir is configured or the store could not be opened.
	Snapshots *snapshot.Stats `json:"snapshots,omitempty"`
	// Degraded is true when durability is configured but not fully healthy
	// (store unavailable, a failed persist, or quarantined snapshots).
	Degraded bool `json:"degraded"`
	// DegradedReason names the first event that latched the degraded flag
	// ("" while healthy).
	DegradedReason string `json:"degraded_reason,omitempty"`

	// Raw histogram snapshots backing the Prometheus exposition; carried
	// unexported so the JSON document stays the derived-stats form.
	endpointHists map[string]obs.HistSnapshot
	stageHists    [obs.NumStages]obs.HistSnapshot
}

// StageStats is one pipeline stage's cumulative timing on /metrics (JSON
// form; the Prometheus form exposes the full histogram buckets).
type StageStats struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// CacheStats reports the shared strategy registry's lookup counters.
type CacheStats struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"` // hits / (hits + misses); 0 when no lookups yet
}

// httpError carries a status code through the handler helpers.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// RegisterCtx validates req, builds (or reuses) the engine, and returns
// its key and strategy provenance. It is the programmatic form of
// POST /v1/engines, used by the CLI's pre-registration path and tests.
// The context's trace (if any) receives the registration's stage spans —
// parse, optimize, measure, and for union strategies precondition and
// solve — and cancellation aborts the build at its privacy-safe points
// (before optimization and before the measurement; never after, since by
// then the budget is spent and the engine must be finished and kept).
func (s *Server) RegisterCtx(ctx context.Context, req *RegisterRequest) (*RegisterResponse, error) {
	// Programmatic callers (startup pre-registration, embedders) arrive
	// without the HTTP middleware's trace; give them one so their engines
	// report a stage breakdown on GET /v1/engines/{key} too.
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		tr = obs.NewTrace(obs.NewRequestID())
		ctx = obs.WithTrace(ctx, tr)
	}
	// Check the scalar budget first: a request that is trivially invalid
	// must be rejected before any workload parsing or histogram
	// materialization is paid for it. NaN/Inf cannot arrive via standard
	// JSON but can via programmatic callers (e.g. the CLI's -eps flag,
	// which accepts "NaN"); the wording here keeps tenant mistakes as
	// 400s, with the serving layer's own errors reserved for internal
	// failures.
	if math.IsNaN(req.Eps) || math.IsInf(req.Eps, 0) || req.Eps <= 0 {
		return nil, badRequest("eps must be positive and finite, got %v", req.Eps)
	}
	if math.IsNaN(req.Delta) || req.Delta < 0 || req.Delta >= 1 {
		return nil, badRequest("delta must be in [0, 1), got %v", req.Delta)
	}
	if req.Delta == 0 {
		// Normalize -0 (valid JSON, passes the range check) to +0: the
		// engine key hashes the float bits, and letting the sign bit fork
		// the key would make a byte-equivalent re-registration take a
		// SECOND measurement of the same data — silently doubling the
		// spent ε despite the documented never-re-measure idempotency.
		req.Delta = 0
	}
	if req.Delta > 0 && req.Eps > 1 {
		return nil, badRequest("the Gaussian mechanism (delta > 0) requires eps <= 1, got eps=%v: the classic calibration is unsound above 1; use delta=0 (Laplace) for high-eps budgets", req.Eps)
	}
	restarts := req.Restarts
	if restarts < 0 {
		return nil, badRequest("restarts must be non-negative, got %d", restarts)
	}
	// Compare the cap against what selection will actually run: omitting
	// restarts (0) normalizes to the optimizer default inside Select, and
	// an operator cap below that default must still hold.
	if effective := (core.HDMMOptions{Restarts: restarts}).Normalized().Restarts; effective > s.cfg.MaxRestarts {
		return nil, badRequest("restarts %d exceeds the limit %d (optimizer CPU scales linearly with restarts); raise the server's MaxRestarts to allow it", effective, s.cfg.MaxRestarts)
	}
	if len(req.Queries) > s.cfg.MaxWorkloadProducts {
		return nil, badRequest("workload declares %d query products, limit is %d (selection cost scales with the product count); raise the server's MaxWorkloadProducts to serve it", len(req.Queries), s.cfg.MaxWorkloadProducts)
	}
	tr.Begin(obs.StageParse)
	w, err := buildWorkload(req.Domain, req.Queries, s.cfg.MaxDomainCells, s.cfg.MaxAttrSize)
	if err != nil {
		tr.End(obs.StageParse)
		return nil, err
	}
	x, err := dataVector(w.Domain, req)
	tr.End(obs.StageParse)
	if err != nil {
		return nil, err
	}
	sel := core.HDMMOptions{
		Restarts: restarts,
		Seed:     req.OptSeed,
		Workers:  s.cfg.Workers,
	}
	strategyKey := registry.Key(w, sel)
	key := s.engineKey(strategyKey, req.Eps, req.Delta, req.Seed, x)
	eng, found, err := s.pool.GetOrCreate(key, func() (*serve.Engine, error) {
		return serve.NewEngineCtx(ctx, w, x, req.Eps, serve.Options{
			Selection:    sel,
			Delta:        req.Delta,
			Seed:         req.Seed,
			Workers:      s.cfg.Workers,
			Registry:     s.reg,
			SolveMaxIter: s.cfg.SolveMaxIter,
		})
	})
	if errors.Is(err, serve.ErrPoolFull) {
		return nil, &httpError{
			code: http.StatusServiceUnavailable,
			msg:  fmt.Sprintf("engine pool is at capacity (%d engines); already-registered engines keep answering", s.cfg.MaxEngines),
		}
	}
	if err != nil {
		// A solve that hit its iteration cap is an internal failure (500
		// with a server-side log), but it is also the exact signal the
		// solver counters exist for — record it before bubbling up.
		if errors.Is(err, core.ErrNotConverged) {
			s.met.observeSolveFailure()
		}
		return nil, err
	}
	if !found {
		if si := eng.SolveInfo(); si != nil {
			s.met.observeSolve(si.Iters, si.Resid)
		}
		// Retain the fresh build's span breakdown for GET /v1/engines/{key}.
		// Reused registrations ran no pipeline, so they overwrite nothing.
		if spans := tr.Spans(); len(spans) > 0 {
			rt := registrationTrace{stages: make([]StageTiming, len(spans)), wallMs: msec(tr.Elapsed())}
			for i, sp := range spans {
				rt.stages[i] = StageTiming{Stage: sp.Stage.String(), Ms: msec(sp.Total), Count: sp.Count}
			}
			s.regSpans.Store(key, rt)
		}
	}
	if !found && s.snaps != nil {
		// This registration took the one measurement — make it durable.
		// Failure degrades, never fails the registration: the engine is
		// live in memory and its budget is already spent; rejecting the
		// tenant now would invite a retry that measures AGAIN.
		if err := s.snaps.Save(eng.Snapshot(key, req.Queries)); err != nil {
			s.log.Error("persisting engine snapshot failed", "key", key, "err", err)
		}
	}
	return &RegisterResponse{
		Key:          key,
		StrategyKey:  strategyKey,
		Operator:     eng.Operator(),
		ExpectedRMSE: eng.ExpectedRMSE(),
		FromCache:    eng.FromCache(),
		Reused:       found,
		NumQueries:   w.NumQueries(),
		Domain:       w.Domain.AttrSizes(),
	}, nil
}

func (s *Server) answerBudgetExceeded() error {
	return badRequest("batch demands more than %d values (evaluation intermediates plus materialized query matrices); split the batch or raise the server's MaxAnswerValues", s.cfg.MaxAnswerValues)
}

// AnswerCtx evaluates a batch of product specs on the engine registered
// under key — the programmatic form of POST /v1/engines/{key}/answer. Every
// slot of the response owns its slice; the HTTP handler, whose response is
// serialized immediately, runs the alias-duplicates fast path instead. The
// context's trace receives the answer-stage span, and cancellation (a
// disconnected client) stops the batch evaluation mid-way — answering is
// privacy-free post-processing, so abandoning it is always safe and the
// CPU goes back to live requests.
func (s *Server) AnswerCtx(ctx context.Context, key string, req *AnswerRequest) (*AnswerResponse, error) {
	return s.answer(ctx, key, req, false)
}

func (s *Server) answer(ctx context.Context, key string, req *AnswerRequest, shared bool) (*AnswerResponse, error) {
	eng, ok := s.pool.Get(key)
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no engine registered under key %q", key)}
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("queries must not be empty")
	}
	sizes := eng.Workload().Domain.AttrSizes()
	// Shared term instances across the batch (one matrix per distinct
	// spec), then bound what evaluation will allocate BEFORE evaluating:
	// a product's row count multiplies across attributes, and each term
	// additionally materializes a dense rows×cols matrix that can dwarf
	// the output (AllRange on n=500 is 125250×500 ≈ 63M cells for a
	// 125k-row answer). Both are counted against one budget with
	// overflow-safe arithmetic; this also bounds the batch length.
	products, err := workload.ParseProducts(req.Queries, sizes)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// What evaluation actually allocates per product is (a) the dense
	// per-term matrices — charged once per DISTINCT (attribute, spec),
	// mirroring ParseProducts' instance sharing — and (b) the Kronecker
	// matvec's per-step intermediates: applying factors last-to-first,
	// the buffer after step k holds (∏_{i<k} colsᵢ)·(∏_{i≥k} rowsᵢ)
	// values, whose PEAK can dwarf the output rows for asymmetric
	// products ("T,R" on [4096,100] answers 5050 rows through a 20.7M-
	// value intermediate). The peak (which always ≥ output rows) is
	// charged per product; float64 accounting is exact into the 2⁵³ range
	// and degrades safely (overflow → +Inf → reject) far beyond any cap.
	// Since the engine contracts a suffix shared by several specs once,
	// the per-product peak is now an upper bound on what a batch holds.
	maxVals := float64(s.cfg.MaxAnswerValues)
	var total float64
	seen := make(map[string]struct{})
	// Batches repeat specs heavily, so the per-product accounting is
	// memoized per distinct raw query string (ParseProducts shares the
	// parsed Product for identical strings) and canonical tokens per
	// predicate-set instance — the accounting arithmetic and its
	// accumulation order are unchanged, duplicates still charge their peak.
	tokens := make(map[workload.PredicateSet]string)
	peaks := make(map[string]float64)
	for pi, p := range products {
		q := req.Queries[pi]
		if peak, ok := peaks[q]; ok {
			if total += peak; !(total <= maxVals) {
				return nil, s.answerBudgetExceeded()
			}
			continue
		}
		acc := 1.0 // ∏ cols, then factor-by-factor becomes ∏ rows
		for a, term := range p.Terms {
			acc *= float64(term.Cols())
			tok, ok := tokens[term]
			if !ok {
				tok = workload.CanonicalToken(term)
				tokens[term] = tok
			}
			tk := strconv.Itoa(a) + "|" + tok
			if _, ok := seen[tk]; !ok {
				seen[tk] = struct{}{}
				total += float64(term.Rows()) * float64(term.Cols())
			}
		}
		peak := 0.0
		for k := len(p.Terms) - 1; k >= 0; k-- {
			acc = acc / float64(p.Terms[k].Cols()) * float64(p.Terms[k].Rows())
			if acc > peak {
				peak = acc
			}
		}
		peaks[q] = peak
		if total += peak; !(total <= maxVals) { // NaN/Inf-safe comparison
			return nil, s.answerBudgetExceeded()
		}
	}
	// On the HTTP path the response is serialized immediately and never
	// mutated, so duplicate queries in the batch may alias one answer
	// slice; the programmatic API keeps independent slices.
	var answers [][]float64
	if shared {
		answers, err = eng.AnswerSharedCtx(ctx, products)
	} else {
		answers, err = eng.AnswerCtx(ctx, products)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err // the client is gone; writeError maps this to 499
		}
		// Beyond cancellation, Engine.AnswerSharedCtx fails only on product/domain
		// mismatches — caller input, not server state.
		return nil, badRequest("%v", err)
	}
	return &AnswerResponse{Answers: answers}, nil
}

// Info returns the metadata of the engine registered under key.
func (s *Server) Info(key string) (*EngineInfo, error) {
	eng, ok := s.pool.Get(key)
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("no engine registered under key %q", key)}
	}
	w := eng.Workload()
	info := &EngineInfo{
		Key:          key,
		StrategyKey:  eng.Key(),
		Operator:     eng.Operator(),
		ExpectedRMSE: eng.ExpectedRMSE(),
		FromCache:    eng.FromCache(),
		Eps:          eng.Epsilon(),
		Delta:        eng.Delta(),
		Domain:       w.Domain.AttrSizes(),
		NumQueries:   w.NumQueries(),
	}
	if si := eng.SolveInfo(); si != nil {
		info.SolverIters = si.Iters
		info.SolverResid = si.Resid
		info.SolverPreconditioned = si.Preconditioned
	}
	if v, ok := s.regSpans.Load(key); ok {
		rt := v.(registrationTrace)
		info.Stages = rt.stages
		info.RegisterWallMs = rt.wallMs
	}
	return info, nil
}

// Metrics returns the server's observability snapshot.
func (s *Server) Metrics() *MetricsResponse {
	st := s.reg.Stats()
	cache := CacheStats{Hits: st.Hits, Misses: st.Misses}
	if total := st.Hits + st.Misses; total > 0 {
		cache.HitRatio = float64(st.Hits) / float64(total)
	}
	endpoints, hists := s.met.snapshot()
	resp := &MetricsResponse{
		Version:        Version,
		Kernels:        mat.Arithmetic,
		UptimeSeconds:  s.met.uptime().Seconds(),
		Engines:        s.pool.Len(),
		StrategyCache:  cache,
		Endpoints:      endpoints,
		Solver:         s.met.solverSnapshot(),
		Degraded:       s.degraded(),
		DegradedReason: s.degradedReason(),
		endpointHists:  hists,
		stageHists:     s.met.stageSnapshots(),
	}
	resp.Stages = make([]StageStats, obs.NumStages)
	for i, h := range resp.stageHists {
		resp.Stages[i] = StageStats{
			Stage:  obs.StageName(i),
			Count:  h.Count,
			MeanMs: h.Mean() * 1e3,
			P99Ms:  h.Quantile(0.99) * 1e3,
			MaxMs:  h.Max * 1e3,
		}
	}
	if s.snaps != nil {
		st := s.snaps.Stats()
		resp.Snapshots = &st
	}
	return resp
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	// Decoding the body (its data vector can be MBs of JSON) is request
	// decoding, which the parse stage covers.
	tr := obs.TraceFrom(r.Context())
	tr.Begin(obs.StageParse)
	err := s.decode(w, r, &req)
	tr.End(obs.StageParse)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.RegisterCtx(r.Context(), &req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	// Idempotent re-registration created nothing: 200, not 201.
	code := http.StatusCreated
	if resp.Reused {
		code = http.StatusOK
	}
	s.writeJSON(w, code, resp)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req AnswerRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := s.answer(r.Context(), r.PathValue("key"), &req, true)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEngineGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.Info(r.PathValue("key"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Degraded is NOT unhealthy — the daemon answers fine from memory — so
	// the status stays "ok" (load balancers keep routing) and the flag
	// rides alongside for operators and alerting, with the first-cause
	// reason so the on-call reads WHY without grepping logs.
	doc := map[string]any{
		"status":         "ok",
		"version":        Version,
		"kernels":        mat.Arithmetic,
		"uptime_seconds": s.met.uptime().Seconds(),
		"degraded":       s.degraded(),
	}
	if why := s.degradedReason(); why != "" {
		doc["degraded_reason"] = why
	}
	s.writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(m.prometheus())
}

// msec renders a duration in milliseconds for logs and JSON documents.
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// instrument wraps a handler with the request's observability: a trace is
// minted (honoring a sane inbound X-Request-Id and echoing the ID back),
// attached to the request context for the pipeline to annotate, and on
// completion the latency lands in the endpoint histogram, the stage spans
// in the stage histograms, and requests slower than the threshold get a
// warn log with their span breakdown.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		tr := obs.NewTrace(id)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d := time.Since(start)
		s.met.observe(name, sw.status, d)
		spans := tr.Spans()
		s.met.observeStages(spans)
		if s.slow > 0 && d >= s.slow {
			attrs := make([]any, 0, 8+2*len(spans))
			attrs = append(attrs, "request_id", id, "endpoint", name, "status", sw.status, "ms", msec(d))
			for _, sp := range spans {
				attrs = append(attrs, sp.Stage.String()+"_ms", msec(sp.Total))
			}
			s.log.Warn("slow request", attrs...)
		} else {
			s.log.Debug("request", "request_id", id, "endpoint", name, "status", sw.status, "ms", msec(d))
		}
	})
}

// decode reads a JSON request body with a size cap and strict fields, so
// misspelled parameters fail loudly instead of silently using defaults.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &httpError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return badRequest("decoding request body: %v", err)
	}
	if dec.More() {
		return badRequest("request body has trailing data after the JSON document")
	}
	return nil
}

// writeJSON marshals before touching the ResponseWriter, so a value JSON
// cannot represent (e.g. an answer that overflowed to ±Inf) becomes a 500
// instead of a silent 200 with an empty body. Write errors after a
// successful marshal mean the client went away; nothing sensible to do.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.log.Error("encoding response failed", "err", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"error":"internal server error"}`+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	msg := err.Error()
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client disconnected mid-request: nobody reads this response,
		// but the status must be recorded as cancelled (499), not as a
		// server error — see statusClientClosedRequest.
		code = statusClientClosedRequest
		msg = "client closed request"
	case code == http.StatusInternalServerError:
		// Internal errors carry server-side detail (cache paths, codec
		// internals) that a network caller has no business seeing — but
		// the operator needs it, so log (with the request ID, so the line
		// joins the client's report) before masking.
		s.log.Error("internal error", "request_id", obs.TraceFrom(r.Context()).ID(), "err", err)
		msg = "internal server error"
	}
	s.writeJSON(w, code, map[string]string{"error": msg})
}

// buildWorkload assembles the workload from the wire representation,
// rejecting domains whose flattened size exceeds maxCells or that have an
// attribute larger than maxAttr — the engine allocates (and pins) one
// float64 per cell, and strategy selection materializes dense n×n
// per-attribute Grams, so a tiny request must not be able to demand an
// arbitrarily large build. The running product check also rules out int
// overflow before schema.NewDomain multiplies the sizes.
func buildWorkload(sizes []int, queries []string, maxCells, maxAttr int) (*workload.Workload, error) {
	if len(sizes) == 0 {
		return nil, badRequest("domain must list at least one attribute size")
	}
	cells := 1
	for i, n := range sizes {
		if n <= 0 {
			return nil, badRequest("domain[%d] = %d, attribute sizes must be positive", i, n)
		}
		if n > maxAttr {
			return nil, badRequest("domain[%d] = %d exceeds the per-attribute limit %d (selection memory is quadratic in an attribute's size); raise the server's MaxAttrSize to serve it", i, n, maxAttr)
		}
		if n > maxCells/cells {
			return nil, badRequest("domain has more than %d cells; raise the server's MaxDomainCells to serve it", maxCells)
		}
		cells *= n
	}
	if len(queries) == 0 {
		return nil, badRequest("queries must list at least one product spec")
	}
	dom := schema.Sizes(sizes...)
	// ParseProducts shares predicate-set instances (and so Gram caches)
	// across identical specs — a thousand repeated "R" products must cost
	// one Gram, not a thousand.
	products, err := workload.ParseProducts(queries, sizes)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	w, err := workload.New(dom, products...)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return w, nil
}

// dataVector materializes the tenant's histogram from whichever of Data or
// Records the request carries.
func dataVector(dom *schema.Domain, req *RegisterRequest) ([]float64, error) {
	switch {
	case req.Data != nil && req.Records != nil:
		return nil, badRequest("set exactly one of data and records, not both")
	case req.Data != nil:
		if len(req.Data) != dom.Size() {
			return nil, badRequest("data vector has length %d, domain size is %d", len(req.Data), dom.Size())
		}
		for i, v := range req.Data {
			// Standard JSON cannot carry NaN/Inf, but programmatic callers
			// can; a non-finite cell would poison the one measurement and
			// pin a permanently broken engine in the pool.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, badRequest("data[%d] = %v, histogram cells must be finite", i, v)
			}
		}
		x := make([]float64, len(req.Data)) // private copy: the engine holds it beyond the request
		copy(x, req.Data)
		return x, nil
	case req.Records != nil:
		sizes := dom.AttrSizes()
		for ri, rec := range req.Records {
			if len(rec) != len(sizes) {
				return nil, badRequest("records[%d] has %d values, domain has %d attributes", ri, len(rec), len(sizes))
			}
			for ai, v := range rec {
				if v < 0 || v >= sizes[ai] {
					return nil, badRequest("records[%d][%d] = %d out of range for attribute of size %d", ri, ai, v, sizes[ai])
				}
			}
		}
		return dom.DataVector(req.Records), nil
	default:
		return nil, badRequest("one of data or records is required")
	}
}

// engineKey derives the pool key of a tenant: the registry strategy key
// (workload structure + selection options) extended with everything else
// that distinguishes one engine from another — budget, mechanism, noise
// seed, and a digest of the data vector. Identical registrations collapse
// onto one engine (idempotent, and crucially ONE measurement: re-posting a
// tenant config must not spend privacy budget again); any differing field
// yields a distinct engine.
//
// The per-process secret is mixed in first, which makes keys unguessable
// bearer handles rather than pure content addresses. Without it, the key
// is computable from candidate inputs, and GET /v1/engines/{key} (200 vs
// 404) becomes a free dataset-equality oracle: an adversary holding two
// candidate datasets differing in one record could probe which one a
// victim registered — an infinite-ε side channel outside the DP
// accounting. (Callers allowed to REGISTER can still observe "reused" for
// a payload they fully supply; treat registration as an operator surface
// or put the daemon behind authentication.)
func (s *Server) engineKey(strategyKey string, eps, delta float64, seed uint64, x []float64) string {
	h := sha256.New()
	_, _ = io.WriteString(h, "hdmm-engine-key-v1\x00")
	h.Write(s.secret[:])
	_, _ = io.WriteString(h, strategyKey)
	var buf [8]byte
	for _, u := range []uint64{math.Float64bits(eps), math.Float64bits(delta), seed, uint64(len(x))} {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range x {
		// v+0 collapses -0.0 onto +0.0 (IEEE 754): a client whose float
		// serializer emits a zero count as -0 must hit the same engine,
		// not fork the key into a second measurement of the same
		// histogram — mirroring the delta normalization in RegisterCtx.
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v+0))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
