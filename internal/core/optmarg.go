package core

import (
	"math"
	"math/rand/v2"

	"repro/internal/marginals"
	"repro/internal/mat"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// OPTMargOptions controls OPT_M (Problem 4).
type OPTMargOptions struct {
	Restarts int // random restarts (default 1)
	MaxIter  int // L-BFGS iterations (default 200)
	Seed     uint64
	Workers  int // cores for concurrent restarts (<= 0: GOMAXPROCS(0))
}

func (o OPTMargOptions) withDefaults() OPTMargOptions {
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	return o
}

// marginalTVector precomputes t_b = Σⱼ wⱼ²·∏ᵢ s(i, j, b) where s is tr(Gᵢⱼ)
// when bit i of b is set and sum(Gᵢⱼ) otherwise: then tr(G(v)·WᵀW) = tᵀ·v.
// These are the "trace and sum of (WᵀW)ᵢ⁽ʲ⁾" statistics of Section 6.3;
// the precomputation is linear in k and afterwards the objective no longer
// depends on the nᵢ or k at all.
func marginalTVector(space *marginals.Space, w *workload.Workload) []float64 {
	d := space.D()
	k := len(w.Products)
	// Per-product, per-attribute trace and sum of the Gram.
	tr := make([][]float64, k)
	sm := make([][]float64, k)
	for j, p := range w.Products {
		tr[j] = make([]float64, d)
		sm[j] = make([]float64, d)
		for i, t := range p.Terms {
			g := t.Gram()
			tr[j][i] = mat.Trace(g)
			sm[j][i] = mat.Sum(g)
		}
	}
	m := space.NumSubsets()
	tvec := make([]float64, m)
	for b := 0; b < m; b++ {
		total := 0.0
		for j, p := range w.Products {
			term := p.Weight * p.Weight
			for i := 0; i < d; i++ {
				if b&(1<<uint(i)) != 0 {
					term *= tr[j][i]
				} else {
					term *= sm[j][i]
				}
			}
			total += term
		}
		tvec[b] = total
	}
	return tvec
}

// OPTMarg solves Problem 4: it optimizes the weights θ of a marginals
// strategy M(θ) to minimize (Σθ)²·‖W·M(θ)⁺‖²_F, with the objective and its
// gradient evaluated in O(4^d) via the lattice algebra of Appendix A.4 and
// an adjoint solve for the gradient:
//
//	f(u)     = tᵀ·v       with X(u)·v = e_full, u = θ²
//	∂f/∂u_a  = −Σ_b λ_{a&b}·Ḡ(a|b)·v_b   with X(u)ᵀ·λ = t
//	∂F/∂θ_a  = 2(Σθ)·f + (Σθ)²·2θ_a·∂f/∂u_a
func OPTMarg(w *workload.Workload, opts OPTMargOptions) (*MarginalStrategy, float64, error) {
	opts = opts.withDefaults()
	space := marginals.NewSpace(w.Domain.AttrSizes())
	tvec := marginalTVector(space, w)
	m := space.NumSubsets()

	obj := func(x, grad []float64) float64 {
		sumTheta := 0.0
		maxU := 0.0
		u := make([]float64, m)
		for a, th := range x {
			sumTheta += th
			u[a] = th * th
			if u[a] > maxU {
				maxU = u[a]
			}
		}
		if sumTheta <= 0 {
			return math.Inf(1)
		}
		// Guard conditioning: the triangular solve loses ~κ = maxU/u_full
		// digits; refuse regions where the objective would be numerical
		// noise (the θ_full>0 constraint of Problem 4, made quantitative).
		if u[space.Full()] < 1e-9*maxU {
			if grad != nil {
				for i := range grad {
					grad[i] = 0
				}
			}
			return math.Inf(1)
		}
		v, err := space.SolveX(u, eFull(space))
		if err != nil {
			return math.Inf(1)
		}
		f := 0.0
		for a := range v {
			f += tvec[a] * v[a]
		}
		if f <= 0 || math.IsNaN(f) {
			// (MᵀM)⁻¹ is PSD so a non-positive trace means the solve broke
			// down numerically.
			if grad != nil {
				for i := range grad {
					grad[i] = 0
				}
			}
			return math.Inf(1)
		}
		val := sumTheta * sumTheta * f
		if grad != nil {
			lam, err := space.SolveXT(u, tvec)
			if err != nil {
				for i := range grad {
					grad[i] = 0
				}
				return math.Inf(1)
			}
			for a := 0; a < m; a++ {
				dfdua := 0.0
				for b := 0; b < m; b++ {
					dfdua -= lam[a&b] * space.GBar(a|b) * v[b]
				}
				grad[a] = 2*sumTheta*f + sumTheta*sumTheta*2*x[a]*dfdua
			}
		}
		return val
	}

	lb := make([]float64, m)
	lb[space.Full()] = 1e-3 // keep X(u) well-conditioned (θ_full > 0)

	// Restarts run concurrently; restart r derives its own PCG stream from
	// (Seed, r), and the winner fold is in restart order, so the result is
	// bit-identical for any Workers value. Restart 0 keeps the informed
	// start (the workload's own marginals).
	results := parallel.Map(opts.Workers, opts.Restarts, func(r int) optimize.Result {
		rng := rand.New(rand.NewPCG(parallel.DeriveSeed(opts.Seed, uint64(r)), 0x0a26))
		x0 := make([]float64, m)
		if r == 0 {
			// Informed start: weight the marginals that appear in the
			// workload (Identity terms on exactly the set attributes).
			for _, p := range w.Products {
				var mask int
				ok := true
				for i, t := range p.Terms {
					if !workload.IsTotalOrIdentity(t) {
						ok = false
						break
					}
					if t.Rows() > 1 {
						mask |= 1 << uint(i)
					}
				}
				if ok {
					x0[mask] += p.Weight
				}
			}
			if sum(x0) == 0 {
				for i := range x0 {
					x0[i] = rng.Float64()
				}
			}
			x0[space.Full()] += 1e-3
		} else {
			for i := range x0 {
				x0[i] = rng.Float64()
			}
		}
		return optimize.MinimizeBox(obj, x0, lb, nil, optimize.Options{MaxIter: opts.MaxIter})
	})
	var best []float64
	bestErr := math.Inf(1)
	for _, res := range results {
		if res.F < bestErr {
			bestErr = res.F
			best = res.X
		}
	}
	if best == nil {
		return nil, 0, errNoMarginalSolution
	}
	return NewMarginalStrategy(space, best), bestErr, nil
}

var errNoMarginalSolution = errorString("core: OPT_M found no feasible solution")

type errorString string

func (e errorString) Error() string { return string(e) }

func eFull(space *marginals.Space) []float64 {
	z := make([]float64, space.NumSubsets())
	z[space.Full()] = 1
	return z
}

func sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}
