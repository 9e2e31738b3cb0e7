package core

import (
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/workload"
)

// restartCounter counts optimizer restart slots executed by Select since
// process start. The serving layer's cache tests read it to prove that a
// cached strategy really skipped optimization (zero restarts performed).
var restartCounter atomic.Int64

// RestartsPerformed reports the total number of Select restart slots
// executed by this process so far.
func RestartsPerformed() int64 { return restartCounter.Load() }

// HDMMOptions controls the OPT_HDMM driver (Algorithm 2).
type HDMMOptions struct {
	Restarts    int  // S in Algorithm 2 (default 5; the paper uses 25)
	MaxMargDims int  // run OPT_M only up to this many attributes (default 14)
	SkipKron    bool // disable individual operators (for ablations)
	SkipPlus    bool
	SkipMarg    bool
	Kron        OPTKronOptions
	Marg        OPTMargOptions
	Seed        uint64
	// Workers bounds the algorithmic fan-out of the selection: the S outer
	// restarts, each operator's internal restarts, and OPT⊗'s per-attribute
	// block subproblems. <= 0 selects GOMAXPROCS(0). The large-matrix
	// kernels underneath (GEMM sharding, Kronecker matvecs) are governed
	// separately by the process-wide parallel.SetKernelWorkers bound; both
	// layers draw helper goroutines from one token bucket sized
	// GOMAXPROCS(0), so the machine is never oversubscribed regardless of
	// either setting. The selected strategy is bit-identical for any value.
	Workers int
}

// Normalized returns the options with defaults applied — including the
// sub-optimizer scalar defaults, so a zero-value Kron/Marg config and an
// explicitly spelled-out default config agree — and all fields that cannot
// affect the selected strategy (Workers) zeroed. Two
// option values with equal Normalized() forms select bit-identical
// strategies, which is what the registry's cache key relies on. Kron.P is
// deliberately left as given: a nil P is resolved against each (sub-)
// workload at optimization time (OPT⁺ resolves it per group), so nil and
// an explicit DefaultP(w) are genuinely different configurations.
func (o HDMMOptions) Normalized() HDMMOptions {
	o = o.withDefaults()
	o.Kron = o.Kron.scalarDefaults()
	o.Marg = o.Marg.withDefaults()
	o.Workers = 0
	o.Kron.Workers = 0
	o.Marg.Workers = 0
	return o
}

func (o HDMMOptions) withDefaults() HDMMOptions {
	if o.Restarts <= 0 {
		o.Restarts = 5
	}
	if o.MaxMargDims <= 0 {
		o.MaxMargDims = 14
	}
	return o
}

// Selected is the outcome of strategy selection.
type Selected struct {
	Strategy Strategy
	Err      float64 // ‖W·A⁺‖²_F at sensitivity 1 (2/ε² factor omitted)
	Operator string  // which operator produced the winner
}

// Select runs OPT_HDMM (Algorithm 2): every enabled optimization operator is
// run S times with random restarts and the lowest-error strategy wins. The
// Identity strategy seeds the comparison so the result is never worse than
// the trivial baseline. Selection never looks at the data, so it consumes no
// privacy budget (Section 7.3).
//
// The S restarts are independent and run concurrently on up to Workers
// cores. Every candidate is seeded purely by its (restart, operator) slot,
// and candidates are compared in the serial order — restart-major, then
// OPT⊗, OPT⁺, OPT_M — so the winner is bit-identical for any Workers value.
func Select(w *workload.Workload, opts HDMMOptions) (*Selected, error) {
	opts = opts.withDefaults()
	d := w.Domain.NumAttrs()

	// Precompute the per-attribute Grams once, serially: the predicate-set
	// caches are concurrency-safe, but warming them here keeps the first
	// parallel restarts from duplicating the work.
	for _, p := range w.Products {
		for _, t := range p.Terms {
			t.Gram()
		}
	}

	candidates := parallel.Map(opts.Workers, opts.Restarts, func(s int) []*Selected {
		restartCounter.Add(1)
		seed := opts.Seed*1_000_003 + uint64(s)
		var cands []*Selected

		if !opts.SkipKron {
			kopts := opts.Kron
			kopts.Seed = seed
			kopts.Workers = opts.Workers
			strat, e, err := OPTKron(w, kopts)
			if err == nil {
				cands = append(cands, &Selected{Strategy: strat, Err: e, Operator: "OPT⊗"})
			}
		}

		if !opts.SkipPlus {
			popts := opts.Kron
			popts.Seed = seed + 17
			popts.Workers = opts.Workers
			strat, e, err := OPTPlus(w, popts)
			if err == nil {
				cands = append(cands, &Selected{Strategy: strat, Err: e, Operator: "OPT+"})
			}
		}

		if !opts.SkipMarg && d <= opts.MaxMargDims {
			mopts := opts.Marg
			mopts.Seed = seed + 43
			mopts.Workers = opts.Workers
			strat, e, err := OPTMarg(w, mopts)
			if err == nil {
				cands = append(cands, &Selected{Strategy: strat, Err: e, Operator: "OPT_M"})
			}
		}
		return cands
	})

	best := &Selected{
		Strategy: &IdentityStrategy{N: w.Domain.Size()},
		Err:      w.GramTrace(),
		Operator: "Identity",
	}
	for _, cands := range candidates {
		for _, c := range cands {
			if c.Err < best.Err {
				best = c
			}
		}
	}
	return best, nil
}
