// Package serve is HDMM's answer-serving runtime. HDMM's cost structure is
// "optimize once, measure once, answer many": strategy selection is the
// expensive step, the private measurement touches the data exactly once,
// and every query answered afterwards is privacy-free post-processing on
// the reconstructed estimate x̂. An Engine bundles that lifecycle — it loads
// a previously optimized strategy from the registry (or computes and stores
// one), runs the measurement once at construction, and then answers
// arbitrary batched query requests concurrently, deterministically for a
// fixed seed at any worker count.
package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/workload"
)

// Options configures an Engine.
type Options struct {
	// Selection controls strategy search on a cache miss.
	Selection core.HDMMOptions
	// Delta selects the measurement mechanism: 0 runs the ε-DP Laplace
	// mechanism, a value in (0,1) runs the (ε,δ)-DP Gaussian mechanism
	// calibrated to the strategy's L2 sensitivity (requires ε ≤ 1; the
	// classic calibration is unsound above).
	Delta float64
	// Seed makes the private noise reproducible: a non-zero value selects a
	// deterministic noise stream. Zero (the default) is the production
	// path: the noise source is seeded from crypto/rand, so engines built
	// at different times release independent noise.
	Seed uint64
	// Workers bounds the goroutines answering one batch (<= 0: all cores).
	// Answers are bit-identical for any value.
	Workers int
	// Registry is the strategy cache. When nil, the Engine uses the
	// process-wide in-memory registry (registry.Shared("")), so engines
	// built at different times in one process reuse each other's
	// strategies.
	Registry *registry.Registry
	// SolveMaxIter caps the LSMR iterations of a union-strategy
	// reconstruction (0 = solver default). When the budget binds before
	// convergence, NewEngineCtx fails with an error wrapping
	// core.ErrNotConverged instead of serving from the unconverged iterate.
	SolveMaxIter int
}

// Engine serves private answers for one workload at one privacy budget.
// Construction performs the entire privacy-relevant work (strategy lookup
// or optimization, one private measurement, least-squares reconstruction);
// afterwards the engine holds only the private estimate x̂ and every Answer
// call is pure post-processing — unlimited queries at no extra privacy
// cost.
type Engine struct {
	w         *workload.Workload
	strategy  core.Strategy
	operator  string
	errF      float64 // ‖W·A⁺‖²_F at sensitivity 1
	xhat      []float64
	workers   int
	fromCache bool
	key       string
	rootMSE   float64
	eps       float64
	delta     float64
	seed      uint64          // noise seed of the measurement (0 = fresh entropy)
	solve     *core.SolveInfo // union-reconstruction diagnostics (nil otherwise)
}

// NewEngineCtx builds a serving engine: it resolves the strategy through
// the registry (reusing any strategy optimized earlier for the same workload
// and selection options, in this process or any other sharing the cache
// directory), measures the data vector once with budget eps (plus
// opts.Delta for Gaussian), and reconstructs x̂. The result satisfies ε-DP
// (δ=0) or (ε,δ)-DP.
//
// Any obs.Trace carried by ctx receives stage spans: StageOptimize covering
// strategy resolution (registry hit or full optimization), StageMeasure for
// the private measurement, StagePrecondition and StageSolve for the
// reconstruction. Cancellation is checked before the two expensive
// commitments — strategy optimization and the measurement — because a
// client that is already gone should not cost an optimization, and above
// all should not spend privacy budget nobody will read. Once the
// measurement has run the budget is irrevocably consumed, so from that
// point the engine is always completed and returned: aborting after
// measurement would throw away paid-for state and invite a retry that
// spends the budget again.
func NewEngineCtx(ctx context.Context, w *workload.Workload, x []float64, eps float64, opts Options) (*Engine, error) {
	if err := mech.CheckBudget(eps, opts.Delta); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if len(x) != w.Domain.Size() {
		return nil, fmt.Errorf("serve: data vector has length %d, domain size is %d", len(x), w.Domain.Size())
	}

	reg := opts.Registry
	if reg == nil {
		var err error
		reg, err = registry.Shared("")
		if err != nil {
			return nil, err
		}
	}

	tr := obs.TraceFrom(ctx)

	if err := ctx.Err(); err != nil {
		return nil, err // gone before optimization: spend nothing
	}
	key := registry.Key(w, opts.Selection)
	tr.Begin(obs.StageOptimize)
	rec, fromCache, err := reg.GetOrCompute(key, func() (*registry.Record, error) {
		return core.Select(w, opts.Selection) // registry.Record is core.Selected
	})
	tr.End(obs.StageOptimize)
	if err != nil {
		return nil, err
	}

	rng := mech.NoiseRNG(opts.Seed) // deterministic if Seed non-zero, crypto/rand otherwise
	// Keys bind strategies to workloads by content address, but nothing
	// stops an operator from renaming .strat files between cache dirs; a
	// mismatched strategy must fail here with an error, not panic inside
	// the measurement or silently reconstruct under the wrong
	// factorization.
	if err := strategyMatchesWorkload(rec.Strategy, w); err != nil {
		return nil, fmt.Errorf("serve: cached strategy %s does not fit the workload (stale or foreign cache entry?): %w", key, err)
	}
	op := rec.Strategy.Operator()
	// Last cancellation point: past here the measurement spends privacy
	// budget, after which the engine is always finished and returned.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr.Begin(obs.StageMeasure)
	y := mech.Measure(op, x, eps, opts.Delta, rng)
	tr.End(obs.StageMeasure)
	// Union strategies run the iterative LSMR reconstruction; route them
	// through the option-bearing entry point so the engine records solver
	// diagnostics (surfaced via SolveInfo and the daemon's /metrics) and
	// honors the caller's iteration cap. A non-converged solve is a
	// construction failure — the unconverged iterate must never be served.
	var xhat []float64
	var solve *core.SolveInfo
	if us, ok := rec.Strategy.(*core.UnionStrategy); ok {
		solve = &core.SolveInfo{}
		xhat, err = us.ReconstructOpt(y, core.ReconstructOptions{
			MaxIter: opts.SolveMaxIter,
			Info:    solve,
			Trace:   tr,
		})
	} else {
		start := time.Now()
		xhat, err = rec.Strategy.Reconstruct(y)
		tr.Observe(obs.StageSolve, time.Since(start))
	}
	if err != nil {
		return nil, err
	}

	return &Engine{
		w:         w,
		strategy:  rec.Strategy,
		operator:  rec.Operator,
		errF:      rec.Err,
		xhat:      xhat,
		workers:   opts.Workers,
		fromCache: fromCache,
		key:       key,
		rootMSE:   mech.ExpectedRMSE(op, rec.Err, w.NumQueries(), eps, opts.Delta),
		eps:       eps,
		delta:     opts.Delta,
		seed:      opts.Seed,
		solve:     solve,
	}, nil
}

// strategyMatchesWorkload checks a cached strategy's shape against the
// workload's domain, per attribute where the strategy has per-attribute
// structure. Comparing only the total column count would let a strategy
// over a different factorization of the same domain size (e.g. [3,2] vs
// [2,3]) slip through and reconstruct silently wrong answers.
func strategyMatchesWorkload(s core.Strategy, w *workload.Workload) error {
	sizes := w.Domain.AttrSizes()
	checkKron := func(k *core.KronStrategy) error {
		if len(k.Subs) != len(sizes) {
			return fmt.Errorf("strategy has %d Kronecker factors, domain has %d attributes", len(k.Subs), len(sizes))
		}
		for i, sub := range k.Subs {
			if sub.N() != sizes[i] {
				return fmt.Errorf("factor %d covers %d domain elements, attribute has %d", i, sub.N(), sizes[i])
			}
		}
		return nil
	}
	switch st := s.(type) {
	case *core.KronStrategy:
		return checkKron(st)
	case *core.UnionStrategy:
		for _, part := range st.Parts {
			if err := checkKron(part); err != nil {
				return err
			}
		}
		for g, idx := range st.Groups {
			for _, j := range idx {
				if j < 0 || j >= len(w.Products) {
					return fmt.Errorf("group %d references product %d, workload has %d", g, j, len(w.Products))
				}
			}
		}
		return nil
	case *core.MarginalStrategy:
		ss := st.Space.Sizes()
		if len(ss) != len(sizes) {
			return fmt.Errorf("strategy lattice has %d attributes, domain has %d", len(ss), len(sizes))
		}
		for i := range ss {
			if ss[i] != sizes[i] {
				return fmt.Errorf("lattice attribute %d has size %d, domain attribute has %d", i, ss[i], sizes[i])
			}
		}
		return nil
	default:
		// Strategies without per-attribute structure (Identity): the total
		// column count is the whole shape.
		if _, cols := s.Operator().Dims(); cols != w.Domain.Size() {
			return fmt.Errorf("strategy covers %d domain cells, workload domain has %d", cols, w.Domain.Size())
		}
		return nil
	}
}

// Strategy returns the measurement strategy the engine serves from.
func (e *Engine) Strategy() core.Strategy { return e.strategy }

// Workload returns the workload the engine was built for. Callers must
// treat it as read-only.
func (e *Engine) Workload() *workload.Workload { return e.w }

// Epsilon returns the privacy budget ε the measurement consumed.
func (e *Engine) Epsilon() float64 { return e.eps }

// Delta returns the measurement's δ (0 = Laplace, >0 = Gaussian).
func (e *Engine) Delta() float64 { return e.delta }

// Operator names the optimization operator that produced the strategy.
func (e *Engine) Operator() string { return e.operator }

// FromCache reports whether the strategy was loaded from the registry
// rather than optimized by this engine.
func (e *Engine) FromCache() bool { return e.fromCache }

// Key returns the registry cache key of the engine's strategy.
func (e *Engine) Key() string { return e.key }

// ExpectedRMSE is the predicted per-query root-mean-squared error of the
// engine's own workload at the construction-time budget.
func (e *Engine) ExpectedRMSE() float64 { return e.rootMSE }

// ExpectedErr is the strategy's expected total squared error ‖W·A⁺‖²_F at
// sensitivity 1 (the stored Selected.Err; multiply by 2/ε² for a budget).
func (e *Engine) ExpectedErr() float64 { return e.errF }

// Xhat returns the private estimate of the data vector, the one vector the
// engine keeps. Callers must treat it as read-only; every function of it
// is privacy-free post-processing.
func (e *Engine) Xhat() []float64 { return e.xhat }

// Seed returns the noise seed the measurement used (0 = fresh entropy).
func (e *Engine) Seed() uint64 { return e.seed }

// SolveInfo returns the diagnostics of the union-strategy reconstruction
// this engine performed at construction (iterations, residual estimate,
// stopping reason, preconditioning), or nil for engines whose strategy
// reconstructs in closed form and for engines restored from snapshots
// (restore does not re-run the solve).
func (e *Engine) SolveInfo() *core.SolveInfo { return e.solve }

// AnswerCtx evaluates a batch of query products against the private
// estimate, returning one answer vector per product (the product's queries
// in row-major order, scaled by its weight). Products sharing predicate-set
// instances on every attribute are evaluated once, and the distinct factor
// sets run as one suffix trie (see mech.AnswerBatch): the forward sweep
// contracts the last attribute first, so a trailing run of factor instances
// that several specs share is contracted against x̂ once for all of them,
// and the nodes of each trie level run concurrently on up to Workers
// goroutines. Every node runs the step the per-product sweep runs, on the
// same inputs, so slot i of the result depends only on products[i] and is
// bit-identical at any worker count and to answering the products one by
// one. Each product must span the engine's domain and have materializable
// per-attribute predicate sets.
//
// A cancelled ctx stops the batch between trie nodes (the error satisfies
// errors.Is(err, ctx.Err())), and any obs.Trace carried by ctx receives a
// StageAnswer span. Answering is privacy-free post-processing, so aborting
// it mid-way is always safe.
func (e *Engine) AnswerCtx(ctx context.Context, products []workload.Product) ([][]float64, error) {
	return e.answer(ctx, products, false)
}

// AnswerSharedCtx is AnswerCtx for read-only consumers: slots of
// exact-duplicate products (same predicate-set instances and weight) alias
// one slice instead of copying it, so a batch of hundreds of repeated specs
// performs one contraction and zero copies. Callers must not mutate the
// returned slices; the HTTP daemon, which serializes the response
// immediately, answers through this path.
func (e *Engine) AnswerSharedCtx(ctx context.Context, products []workload.Product) ([][]float64, error) {
	return e.answer(ctx, products, true)
}

func (e *Engine) answer(ctx context.Context, products []workload.Product, shared bool) ([][]float64, error) {
	for i, p := range products {
		if err := e.validateProduct(p); err != nil {
			return nil, fmt.Errorf("serve: product %d: %w", i, err)
		}
	}
	out, err := mech.AnswerBatchCtx(ctx, products, e.xhat, e.workers, shared)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && err == ctxErr {
			return nil, ctxErr // cancellation, undecorated (see AnswerCtx)
		}
		return nil, fmt.Errorf("serve: %w", err)
	}
	return out, nil
}

// validateProduct checks a product's shape against the engine's domain.
func (e *Engine) validateProduct(p workload.Product) error {
	if len(p.Terms) != e.w.Domain.NumAttrs() {
		return fmt.Errorf("has %d terms, domain has %d attributes", len(p.Terms), e.w.Domain.NumAttrs())
	}
	for i, t := range p.Terms {
		if t.Cols() != e.w.Domain.Attr(i).Size {
			return fmt.Errorf("term %d has %d columns, attribute has size %d", i, t.Cols(), e.w.Domain.Attr(i).Size)
		}
	}
	return nil
}
