package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/kron"
	"repro/internal/lsmr"
	"repro/internal/marginals"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ErrNotConverged reports that the iterative least-squares solve behind a
// union reconstruction exhausted its iteration budget before any
// convergence test fired. The returned estimate is the best iterate, not a
// converged solution — serving layers must surface the failure instead of
// answering from it.
var ErrNotConverged = errors.New("union reconstruction did not converge")

// Solve methods reported in SolveInfo.Method.
const (
	SolveRefine = "refine" // certified fixed-point refinement on the normal equations (lsmr.Refine)
	SolveLSMR   = "lsmr"   // LSMR iterations (lsmr.Solve)
)

// SolveInfo reports how a union reconstruction's solve went — exported
// by the serving engine and the HTTP daemon's /metrics so operators can see
// iteration counts and residuals instead of inferring them from latency.
type SolveInfo struct {
	Method         string  // SolveRefine or SolveLSMR
	Iters          int     // LSMR iterations, or refinement steps when Method is SolveRefine
	Resid          float64 // final ‖y − A·x̂‖ estimate (of the solved system)
	Stopped        string  // lsmr stopping reason
	Preconditioned bool    // the per-factor eigendecomposition preconditioner was applied
}

// Strategy is a measurement strategy selected by one of the HDMM operators.
// Every strategy is normalized to sensitivity 1, so the Laplace mechanism
// adds noise with scale exactly 1/ε to its query answers, and Error reports
// ‖W·A⁺‖²_F — the expected total squared error of the workload at ε=1 up to
// the constant factor 2 (Definition 7).
type Strategy interface {
	// Operator returns the implicit measurement matrix.
	Operator() kron.Linear
	// Sensitivity returns ‖A‖₁ (1 for all built-in strategies).
	Sensitivity() float64
	// Error returns the expected total squared error ‖A‖₁²·‖W·A⁺‖²_F of
	// answering w from this strategy.
	Error(w *workload.Workload) (float64, error)
	// Reconstruct performs the least-squares inference x̂ = A⁺·y, drawing
	// the scratch of its operator applications from ws.
	Reconstruct(y []float64, ws *kron.Workspace) ([]float64, error)
	// Name identifies the producing operator for diagnostics.
	Name() string
}

// ---------------------------------------------------------------------------
// KronStrategy: single Kronecker product of p-Identity strategies (OPT⊗)
// ---------------------------------------------------------------------------

// KronStrategy is the output of OPT⊗: A = A(Θ₁) ⊗ ··· ⊗ A(Θ_d).
type KronStrategy struct {
	Subs []*PIdentity

	gramOnce sync.Once
	gramInvs []*mat.Dense // cached (AᵢᵀAᵢ)⁻¹, guarded by gramOnce
	gramErr  error

	pinvOnce sync.Once
	pinvOp   *kron.Product // cached A₁⁺⊗···⊗A_d⁺, guarded by pinvOnce
	pinvErr  error
}

// NewKronStrategy wraps per-attribute p-Identity strategies.
func NewKronStrategy(subs ...*PIdentity) *KronStrategy {
	if len(subs) == 0 {
		panic("core: empty Kron strategy")
	}
	return &KronStrategy{Subs: subs}
}

// Name implements Strategy.
func (s *KronStrategy) Name() string { return "OPT⊗" }

// Sensitivity is 1: each factor has sensitivity 1 and Theorem 3 multiplies.
func (s *KronStrategy) Sensitivity() float64 { return 1 }

// Operator materializes the per-attribute strategy matrices (each only
// (nᵢ+pᵢ)×nᵢ) into an implicit Kronecker product.
func (s *KronStrategy) Operator() kron.Linear {
	factors := make([]*mat.Dense, len(s.Subs))
	for i, sub := range s.Subs {
		factors[i] = sub.Matrix()
	}
	return kron.NewProduct(factors...)
}

// GramInvs returns the cached per-factor (AᵀA)⁻¹ matrices. The cache is
// computed once and safe for concurrent first use.
func (s *KronStrategy) GramInvs() ([]*mat.Dense, error) {
	s.gramOnce.Do(func() {
		gi := make([]*mat.Dense, len(s.Subs))
		for i, sub := range s.Subs {
			g, err := sub.GramInv()
			if err != nil {
				s.gramErr = err
				return
			}
			gi[i] = g
		}
		s.gramInvs = gi
	})
	return s.gramInvs, s.gramErr
}

// Error implements Theorem 6: for W = Σⱼ wⱼ·W₁⁽ʲ⁾⊗···⊗W_d⁽ʲ⁾ and product
// strategy A, ‖W·A⁺‖²_F = Σⱼ wⱼ²·∏ᵢ tr((AᵢᵀAᵢ)⁻¹·Gᵢⱼ).
func (s *KronStrategy) Error(w *workload.Workload) (float64, error) {
	if len(w.Products) == 0 {
		return 0, nil
	}
	if len(w.Products[0].Terms) != len(s.Subs) {
		return 0, fmt.Errorf("core: strategy has %d factors, workload has %d attributes", len(s.Subs), len(w.Products[0].Terms))
	}
	gi, err := s.GramInvs()
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, p := range w.Products {
		term := p.Weight * p.Weight
		for i, t := range p.Terms {
			term *= mat.TraceMul(gi[i], t.Gram())
		}
		total += term
	}
	return total, nil
}

// PinvOperator returns the cached pseudo-inverse product A₁⁺⊗···⊗A_d⁺
// (Section 4.4). The factor pseudo-inverses are computed once and the
// cache is safe for concurrent first use; repeated reconstructions (every
// answering trial, every serving engine built on a cached strategy) reuse
// the same operator instead of re-running d eigendecompositions.
func (s *KronStrategy) PinvOperator() (*kron.Product, error) {
	s.pinvOnce.Do(func() {
		factors := make([]*mat.Dense, len(s.Subs))
		for i, sub := range s.Subs {
			p, err := sub.Pinv()
			if err != nil {
				s.pinvErr = err
				return
			}
			factors[i] = p
		}
		s.pinvOp = kron.NewProduct(factors...)
	})
	return s.pinvOp, s.pinvErr
}

// Reconstruct computes x̂ = A⁺·y = (A₁⁺⊗···⊗A_d⁺)·y using the per-factor
// pseudo-inverse identity of Section 4.4 and the GEMM-backed mode
// contraction.
func (s *KronStrategy) Reconstruct(y []float64, ws *kron.Workspace) ([]float64, error) {
	op, err := s.PinvOperator()
	if err != nil {
		return nil, err
	}
	r, _ := op.Dims()
	out := make([]float64, r)
	op.MatVec(out, y, ws)
	return out, nil
}

// ---------------------------------------------------------------------------
// UnionStrategy: union of Kronecker products (OPT⁺)
// ---------------------------------------------------------------------------

// UnionStrategy is the output of OPT⁺: a stack of exactly two product
// strategies, block g scaled by budget share βg (β₁ + β₂ = 1, so total
// sensitivity stays 1). Groups[g] lists the workload products block g was
// optimized for; reconstruction is nevertheless joint, one least-squares
// solve over the whole stack, so every answer draws on every block. The
// two-part shape is the contract: OPTPlus builds no other, the registry
// codec stores no other, and only it has the pencil preconditioner. Parts
// and Shares must not be mutated after the first Operator call: the built
// stack (and with it the stack's cached block offsets) is memoized.
type UnionStrategy struct {
	Parts  []*KronStrategy
	Shares []float64
	Groups [][]int // workload product indices answered by each part

	opOnce sync.Once
	op     *kron.Stack // cached scaled stack, guarded by opOnce

	pcOnce    sync.Once
	pcStack   kron.Linear // preconditioned operator A·M, guarded by pcOnce
	pcM       kron.Linear // right preconditioner M (x = M·z); nil when the pencil declined
	pcDelta   float64     // upper bound on ‖I − (AM)ᵀAM‖₂; +Inf when the pencil declined
	pcNormal  kron.Linear // (AM)ᵀAM at cell size from the factor Grams; nil without a finite delta
	pcGramErr float64     // bound on ‖pcNormal − (AM)ᵀAM‖₂ from rounding those Grams
}

// Name implements Strategy.
func (s *UnionStrategy) Name() string { return "OPT+" }

// Sensitivity is Σ βg·1 = 1.
func (s *UnionStrategy) Sensitivity() float64 { return 1 }

// Operator returns the scaled stack, built once — repeated applications
// (every solve step of every reconstruction) then reuse the stack's
// cached row offsets and the factor transposes cached on its products.
func (s *UnionStrategy) Operator() kron.Linear {
	s.opOnce.Do(func() {
		blocks := make([]kron.Linear, len(s.Parts))
		for i, p := range s.Parts {
			blocks[i] = p.Operator()
		}
		s.op = kron.NewStack(blocks, s.Shares)
	})
	return s.op
}

// Error returns Σ_g Err_g/βg², the error of answering each group g from
// block g alone, whose effective noise scale is 1/βg. Reconstruction is
// joint, and the joint least-squares estimate is at least as good as any
// estimate answering each group from its own block, so this is an upper
// bound on the error of the served answers, not that error: on a 96-cell
// two-part union the exact joint error is 21.0 against 26.5 here
// (Laplace, ε = 1; the serve package's OPT⁺ calibration test). Selection
// compares OPT⁺ candidates by this bound.
func (s *UnionStrategy) Error(w *workload.Workload) (float64, error) {
	total := 0.0
	for g, part := range s.Parts {
		sub := &workload.Workload{Domain: w.Domain}
		for _, j := range s.Groups[g] {
			sub.Products = append(sub.Products, w.Products[j])
		}
		e, err := part.Error(sub)
		if err != nil {
			return 0, err
		}
		total += e / (s.Shares[g] * s.Shares[g])
	}
	return total, nil
}

// Reconstruct solves the joint least-squares problem over the full stacked
// strategy iteratively (Section 7.2: no closed-form pseudo-inverse exists
// for unions of Kronecker products). The solve runs right-preconditioned
// by the pencil of the two parts' factor Grams (see precond). When the
// preconditioned operator is certified within δ < 1 of orthonormal
// columns, it takes the fixed refinement lsmr.Refine on the normal
// equations, one step on CPH; a certificate not below 1, a declined
// pencil and a refinement that floating point cannot certify run LSMR.
// Either returns a non-nil error wrapping ErrNotConverged —
// alongside the best iterate — when the iteration budget binds before
// convergence.
func (s *UnionStrategy) Reconstruct(y []float64, ws *kron.Workspace) ([]float64, error) {
	return s.ReconstructOpt(y, ws, ReconstructOptions{})
}

// ReconstructOptions tunes a union reconstruction. The zero value is the
// default solve: preconditioned, solver-default iteration budget.
type ReconstructOptions struct {
	// MaxIter caps the LSMR iterations or refinement steps (0 = solver
	// default, 4·cols).
	MaxIter int
	// NoPrecond disables the eigendecomposition preconditioner — the
	// reference solve the preconditioned path is pinned against in tests.
	NoPrecond bool
	// Info, when non-nil, receives the solve diagnostics.
	Info *SolveInfo
	// Trace, when non-nil, receives stage spans for the reconstruction:
	// StagePrecondition covering the preconditioner build (cached after the
	// first reconstruction of a strategy, so later spans are ~0) and
	// StageSolve covering the solve and, when preconditioned, the map back
	// x = M·z: one observation for a refinement, one for an LSMR solve and
	// one for its map back, and one more for a refinement that fails its
	// certificate before LSMR runs. Nil-safe and allocation-free.
	Trace *obs.Trace
}

// precond builds (once) the pencil preconditioner of the two-part union:
// the preconditioned operator A·M, whose Kronecker part folds INTO the
// stack factors — so a preconditioned solve step costs what a plain one
// does — the preconditioner M itself for mapping z back to x = M·z, and
// the certificate delta (see pencilPrecond). It returns (nil, nil, +Inf),
// a plain solve, when the parts differ in factor sizes, a share's square
// is not positive, or a factor Gram of block 1 is numerically
// rank-deficient.
func (s *UnionStrategy) precond() (kron.Linear, kron.Linear, float64) {
	s.pcOnce.Do(s.pencilPrecond)
	return s.pcStack, s.pcM, s.pcDelta
}

// pencilPrecond is the exact two-block preconditioner: per factor i the
// pencil (G_{1,i}, G_{2,i}) of the blocks' Grams is simultaneously
// diagonalized — Vᵢᵀ·G_{1,i}·Vᵢ = I, Vᵢᵀ·G_{2,i}·Vᵢ = Λᵢ — by whitening
// block 1's Gram and eigendecomposing block 2's Gram in the whitened basis
// (the symmetric form of the generalized eigenproblem G₂·v = λ·G₁·v). That
// makes (⊗Vᵢ)ᵀ·AᵀA·(⊗Vᵢ) = β₁²·I + β₂²·⊗Λᵢ exactly diagonal, and scaling
// out that diagonal D over the full domain (M = (⊗Vᵢ)·D^{-1/2}, a
// kron.ColScaled) leaves a preconditioned operator with orthonormal
// columns in exact arithmetic. It sets the pc* fields when the
// construction succeeds and leaves pcDelta at +Inf otherwise.
//
// It also bounds delta ≥ ‖I − N‖₂ for N = (AM)ᵀAM of the operator it
// built, so the solve can be a fixed refinement. With Bᵢ the built
// factors of a block, P = ⊗B₁ᵢᵀB₁ᵢ ≈ I, Q = ⊗B₂ᵢᵀB₂ᵢ ≈ ⊗Λᵢ and
// S = D^{-1/2}, N = S·(β₁²·P + β₂²·Q)·S and
//
//	I − N = (I − S·D·S) − β₁²·S·(P − I)·S − β₂²·S·(Q − ⊗Λᵢ)·S.
//
// The first term is diagonal, max_j |1 − s_j²·D_j|. The second is at most
// β₁²·max s_j² times kronDeviation of block 1. Writing Q − ⊗Λᵢ =
// (⊗Tᵢ)·(⊗(Tᵢ⁻¹·B₂ᵢᵀB₂ᵢ·Tᵢ⁻¹) − I)·(⊗Tᵢ) with Tᵢ = Λᵢ^{1/2}, the third is
// at most max β₂²·s_j²·λ_j (≤ 1) times kronDeviation of block 2 against Λ.
// Every quantity is computed at factor size except the three maxima, one
// pass over the diagonal that building S makes anyway.
//
// The factor Grams kronDeviation forms are kept as the two Kronecker
// products P and Q, so N itself applies at cell size (pencilGram) — the
// refinement's step — without touching the stack's rows. The same
// weights bound ‖N − (AM)ᵀAM‖₂ from the Grams' rounding: β₁²·max s_j²
// and max β₂²·s_j²·λ_j times each block's rounding share of
// kronDeviation.
func (s *UnionStrategy) pencilPrecond() {
	s.pcDelta = math.Inf(1)
	if len(s.Parts) != 2 || len(s.Parts[0].Subs) != len(s.Parts[1].Subs) {
		return
	}
	d := len(s.Parts[0].Subs)
	for i, sub := range s.Parts[1].Subs {
		if sub.N() != s.Parts[0].Subs[i].N() {
			return
		}
	}
	b1 := s.Shares[0] * s.Shares[0]
	b2 := s.Shares[1] * s.Shares[1]
	if !(b1 > 0) || !(b2 > 0) {
		return
	}
	vs := make([]*mat.Dense, d)
	lams := make([][]float64, d)
	lamKron := []float64{1}
	for i := 0; i < d; i++ {
		g1 := mat.Gram(nil, s.Parts[0].Subs[i].Matrix())
		g2 := mat.Gram(nil, s.Parts[1].Subs[i].Matrix())
		w1, ok := invSqrtSPD(g1)
		if !ok {
			return
		}
		c := mat.Mul(nil, mat.Mul(nil, w1, g2), w1)
		symmetrize(c)
		lam, q, err := mat.SymEigen(c)
		if err != nil {
			return
		}
		vs[i] = mat.Mul(nil, w1, q)
		// Λᵢ is PSD up to rounding; clamp so D stays ≥ β₁² > 0.
		for b, lb := range lam {
			if lb < 0 {
				lam[b] = 0
			}
		}
		lams[i] = lam
		next := make([]float64, len(lamKron)*len(lam))
		for a, la := range lamKron {
			for b, lb := range lam {
				next[a*len(lam)+b] = la * lb
			}
		}
		lamKron = next
	}
	// scale = D^{-1/2}, overwriting ⊗Λᵢ in place once the diagonal terms
	// of the bound have read it.
	scale := lamKron
	var eta, maxS2, c2 float64
	for j, v := range scale {
		sj := 1 / math.Sqrt(b1+b2*v)
		s2 := sj * sj
		eta = math.Max(eta, math.Abs(1-s2*(b1+b2*v)))
		maxS2 = math.Max(maxS2, s2)
		c2 = math.Max(c2, b2*s2*v)
		scale[j] = sj
	}
	blocks := make([]kron.Linear, 2)
	bfs := make([][]*mat.Dense, 2)
	for g, p := range s.Parts {
		bf := make([]*mat.Dense, d)
		for i, sub := range p.Subs {
			bf[i] = mat.Mul(nil, sub.Matrix(), vs[i])
		}
		blocks[g] = kron.NewProduct(bf...)
		bfs[g] = bf
	}
	dev1, round1, gp := kronDeviation(bfs[0], nil)
	dev2, round2, gq := kronDeviation(bfs[1], lams)
	s.pcDelta = eta + b1*maxS2*dev1 + c2*dev2
	s.pcStack = kron.NewColScaled(kron.NewStack(blocks, s.Shares), scale)
	s.pcM = kron.NewColScaled(kron.NewProduct(vs...), scale)
	if gq != nil { // nil only with dev2 = +Inf, where the refinement never runs
		s.pcNormal = pencilGram{kron.NewColScaled(kron.NewSum([]kron.Linear{gp, gq}, []float64{b1, b2}), scale)}
		s.pcGramErr = b1*maxS2*round1 + c2*round2
	}
}

// pencilGram applies N = S·(β₁²·P + β₂²·Q)·S, the normal matrix of the
// pencil-preconditioned two-part union, over the cells: inner is
// (β₁²·P + β₂²·Q)·S, and the left S runs in place on its output. N is
// symmetric, so its transpose is itself.
type pencilGram struct{ inner *kron.ColScaled }

func (n pencilGram) Dims() (int, int)     { return n.inner.Dims() }
func (n pencilGram) Sensitivity() float64 { return n.inner.Sensitivity() * maxAbs(n.inner.Scale) }

func (n pencilGram) MatVec(dst, z []float64, ws *kron.Workspace) {
	n.inner.MatVec(dst, z, ws)
	for i, s := range n.inner.Scale {
		dst[i] *= s
	}
}

func (n pencilGram) MatTVec(dst, z []float64, ws *kron.Workspace) { n.MatVec(dst, z, ws) }

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// kronDeviation bounds ‖⊗ᵢ(Tᵢ⁻¹·BᵢᵀBᵢ·Tᵢ⁻¹) − I‖₂ for the factors Bᵢ of
// one preconditioned block, with Tᵢ = Λᵢ^{1/2} (Tᵢ = I when lams is nil).
// Each factor's deviation Eᵢ = Tᵢ⁻¹·BᵢᵀBᵢ·Tᵢ⁻¹ − I is bounded by ‖Eᵢ‖_F
// plus γ_m·‖Bᵢ·Tᵢ⁻¹‖²_F, the worst-case rounding of forming the Gram from
// m-row columns (γ_m = m·u/(1 − m·u)), and the terms of ⊗(I + Eᵢ) − I are
// at most ∏(1 + ‖Eᵢ‖) − 1 in norm. It is +Inf when some λ is not positive.
//
// It also returns the rounding's share of the bound, ∏(1 + ‖Êᵢ‖_F +
// γ_m·‖Bᵢ·Tᵢ⁻¹‖²_F) − ∏(1 + ‖Êᵢ‖_F) for the deviations Êᵢ of the computed
// Grams, which bounds the Tᵢ⁻¹-scaled gap between ⊗BᵢᵀBᵢ and the Kronecker
// product of the computed Grams, and that product itself (nil with +Inf).
func kronDeviation(factors []*mat.Dense, lams [][]float64) (float64, float64, *kron.Product) {
	const u = 0x1p-53
	prod, exact := 1.0, 1.0
	grams := make([]*mat.Dense, len(factors))
	for i, b := range factors {
		m, n := b.Dims()
		t := make([]float64, n) // the diagonal of Tᵢ
		for a := range t {
			t[a] = 1
			if lams != nil {
				if !(lams[i][a] > 0) {
					return math.Inf(1), math.Inf(1), nil
				}
				t[a] = math.Sqrt(lams[i][a])
			}
		}
		gram := mat.Gram(nil, b)
		dev, colSq := 0.0, 0.0
		for a := 0; a < n; a++ {
			colSq += gram.At(a, a) / (t[a] * t[a])
			for c := 0; c < n; c++ {
				e := gram.At(a, c) / (t[a] * t[c])
				if a == c {
					e--
				}
				dev += e * e
			}
		}
		gamma := float64(m) * u / (1 - float64(m)*u)
		prod *= 1 + math.Sqrt(dev) + gamma*colSq
		exact *= 1 + math.Sqrt(dev)
		grams[i] = gram
	}
	return prod - 1, prod - exact, kron.NewProduct(grams...)
}

// symmetrize averages a nearly-symmetric matrix with its transpose in
// place, guarding the symmetric eigensolver against rounding asymmetry.
func symmetrize(m *mat.Dense) {
	n, _ := m.Dims()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// invSqrtSPD returns H^{-1/2} = Q·Λ^{-1/2}·Qᵀ for a symmetric positive
// definite H, or ok=false when H is numerically rank-deficient (the caller
// falls back to the unpreconditioned solve).
func invSqrtSPD(h *mat.Dense) (*mat.Dense, bool) {
	vals, q, err := mat.SymEigen(h)
	if err != nil {
		return nil, false
	}
	n := len(vals)
	lmax := vals[n-1] // ascending order
	if !(lmax > 0) {
		return nil, false
	}
	const ratio = 1e-10
	scaled := mat.NewDense(n, n)
	for j := 0; j < n; j++ {
		if vals[j] <= ratio*lmax {
			return nil, false
		}
		inv := 1 / math.Sqrt(vals[j])
		for i := 0; i < n; i++ {
			scaled.Set(i, j, q.At(i, j)*inv)
		}
	}
	return mat.MulNT(nil, scaled, q), true
}

// notConvergedErr formats the non-convergence failure for one solve.
func (s *UnionStrategy) notConvergedErr(method string, res lsmr.Result) error {
	return fmt.Errorf("core: %w: %s %s solve stopped at its %d-iteration budget with residual estimate %.6g; raise the iteration budget or serve degraded explicitly",
		ErrNotConverged, s.Name(), method, res.Iters, res.Resid)
}

// ReconstructOpt is the full-control union reconstruction: preconditioning
// (default on), iteration caps, and solve diagnostics. On a converged solve
// it returns (x̂, nil); when the iteration budget binds it returns the best
// iterate together with an error wrapping ErrNotConverged, so callers can
// choose between failing hard (the serving path) and explicitly accepting a
// degraded estimate. Every operator application of the solve and the map
// back draws its scratch from ws. For a fixed configuration the result is
// bit-identical at any worker count.
func (s *UnionStrategy) ReconstructOpt(y []float64, ws *kron.Workspace, opts ReconstructOptions) ([]float64, error) {
	s.Operator()
	op := s.op
	rows, cols := op.Dims()
	if len(y) != rows {
		return nil, fmt.Errorf("core: measurement has length %d, union strategy has %d rows", len(y), rows)
	}
	solveOp := kron.Linear(op)
	var pcM kron.Linear
	delta := math.Inf(1)
	if !opts.NoPrecond {
		opts.Trace.Begin(obs.StagePrecondition)
		pcStack, m, d := s.precond()
		opts.Trace.End(obs.StagePrecondition)
		if pcStack != nil {
			solveOp, pcM, delta = pcStack, m, d
		}
	}

	lopts := lsmr.Options{MaxIter: opts.MaxIter}
	method := solveMethod(delta)
	start := time.Now()
	var res lsmr.Result
	if method == SolveRefine {
		res = lsmr.Refine(s.normal(), y, ws, lopts)
		if res.Stopped == lsmr.StoppedUncertified {
			opts.Trace.Observe(obs.StageSolve, time.Since(start))
			method = SolveLSMR
		}
	}
	if method == SolveLSMR {
		lopts.Trace = opts.Trace // LSMR observes its own solve
		res = lsmr.Solve(solveOp, y, ws, lopts)
		start = time.Now()
	}
	x := res.X
	if pcM != nil {
		// The map back is a full Kronecker application over the domain
		// and part of the reconstruction, so its time belongs to the
		// solve stage; left out, it is registration time no stage explains.
		x = make([]float64, cols)
		pcM.MatVec(x, res.X, ws)
		opts.Trace.Observe(obs.StageSolve, time.Since(start))
	}
	if opts.Info != nil {
		*opts.Info = SolveInfo{
			Method:         method,
			Iters:          res.Iters,
			Resid:          res.Resid,
			Stopped:        res.Stopped,
			Preconditioned: pcM != nil,
		}
	}
	if res.Stopped == lsmr.StoppedMaxIter {
		return x, s.notConvergedErr(method, res)
	}
	return x, nil
}

// normal is the refinement's problem on the preconditioned operator; call
// it after precond.
func (s *UnionStrategy) normal() lsmr.Normal {
	return lsmr.Normal{A: s.pcStack, N: s.pcNormal, Delta: s.pcDelta, GramErr: s.pcGramErr}
}

// solveMethod picks the solve for a preconditioned operator whose normal
// matrix is within delta of the identity: the certified refinement when
// delta < 1, LSMR otherwise (δ ≥ 1, NaN, or +Inf for a declined pencil and
// the unpreconditioned operator).
func solveMethod(delta float64) string {
	if delta < 1 {
		return SolveRefine
	}
	return SolveLSMR
}

// OptimalShares returns budget shares βg ∝ Err_g^{1/3}, which minimize
// Σ Err_g/βg² subject to Σβg = 1 (Lagrange conditions).
func OptimalShares(errs []float64) []float64 {
	shares := make([]float64, len(errs))
	sum := 0.0
	for i, e := range errs {
		shares[i] = math.Cbrt(math.Max(e, 1e-300))
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// ---------------------------------------------------------------------------
// MarginalStrategy: weighted marginals M(θ) (OPT_M)
// ---------------------------------------------------------------------------

// MarginalStrategy is the output of OPT_M: the stack of all 2^d marginals
// weighted by θ (zero-weight marginals are omitted from measurement). θ is
// normalized so Σθ = 1, making the sensitivity exactly 1.
type MarginalStrategy struct {
	Space *marginals.Space
	Theta []float64
}

// NewMarginalStrategy normalizes θ to sensitivity 1 and wraps it.
func NewMarginalStrategy(space *marginals.Space, theta []float64) *MarginalStrategy {
	sum := 0.0
	for _, v := range theta {
		if v < 0 {
			panic("core: negative marginal weight")
		}
		sum += v
	}
	if sum <= 0 {
		panic("core: zero marginal strategy")
	}
	norm := make([]float64, len(theta))
	for i, v := range theta {
		norm[i] = v / sum
	}
	return &MarginalStrategy{Space: space, Theta: norm}
}

// Name implements Strategy.
func (s *MarginalStrategy) Name() string { return "OPT_M" }

// Sensitivity is Σθ = 1 (every marginal partitions the domain, so column
// sums are exactly Σθ).
func (s *MarginalStrategy) Sensitivity() float64 { return 1 }

// active returns the subsets with non-negligible weight.
func (s *MarginalStrategy) active() []int {
	var out []int
	for a, v := range s.Theta {
		if v > 1e-12 {
			out = append(out, a)
		}
	}
	return out
}

// Operator returns the implicit weighted-marginals operator.
func (s *MarginalStrategy) Operator() kron.Linear {
	return &marginalOperator{s: s, subsets: s.active()}
}

// Error evaluates (Σθ)²·tr((MᵀM)⁺·WᵀW) via the lattice algebra; see
// Problem 4 and optmarg.go for the derivation of the t-vector.
func (s *MarginalStrategy) Error(w *workload.Workload) (float64, error) {
	tvec := marginalTVector(s.Space, w)
	u := make([]float64, len(s.Theta))
	for i, v := range s.Theta {
		u[i] = v * v
	}
	v, err := s.Space.GInverse(u)
	if err != nil {
		return 0, err
	}
	f := 0.0
	for i := range v {
		f += v[i] * tvec[i]
	}
	// Σθ = 1 after normalization, so sensitivity² = 1.
	return f, nil
}

// Reconstruct computes x̂ = M⁺·y = (MᵀM)⁺·Mᵀ·y with the lattice inverse;
// it needs no workspace.
func (s *MarginalStrategy) Reconstruct(y []float64, _ *kron.Workspace) ([]float64, error) {
	mty := make([]float64, s.Space.N())
	off := 0
	for _, a := range s.active() {
		sz := s.Space.MarginalSize(a)
		part := s.Space.ExpandFrom(a, y[off:off+sz])
		th := s.Theta[a]
		for i, v := range part {
			mty[i] += th * v
		}
		off += sz
	}
	u := make([]float64, len(s.Theta))
	for i, v := range s.Theta {
		u[i] = v * v
	}
	vinv, err := s.Space.GInverse(u)
	if err != nil {
		return nil, err
	}
	return s.Space.GMatVec(vinv, mty), nil
}

// marginalOperator adapts a MarginalStrategy to kron.Linear.
type marginalOperator struct {
	s       *MarginalStrategy
	subsets []int
}

func (m *marginalOperator) Dims() (int, int) {
	r := 0
	for _, a := range m.subsets {
		r += m.s.Space.MarginalSize(a)
	}
	return r, m.s.Space.N()
}

func (m *marginalOperator) MatVec(dst, x []float64, _ *kron.Workspace) {
	off := 0
	for _, a := range m.subsets {
		part := m.s.Space.MarginalizeTo(a, x)
		th := m.s.Theta[a]
		for i, v := range part {
			dst[off+i] = th * v
		}
		off += len(part)
	}
}

func (m *marginalOperator) MatTVec(dst, y []float64, _ *kron.Workspace) {
	for i := range dst {
		dst[i] = 0
	}
	off := 0
	for _, a := range m.subsets {
		sz := m.s.Space.MarginalSize(a)
		part := m.s.Space.ExpandFrom(a, y[off:off+sz])
		th := m.s.Theta[a]
		for i, v := range part {
			dst[i] += th * v
		}
		off += sz
	}
}

func (m *marginalOperator) Sensitivity() float64 {
	s := 0.0
	for _, a := range m.subsets {
		s += m.s.Theta[a]
	}
	return s
}

// L2Sensitivity is √(Σθ_a²) over the active subsets: every column holds
// θ_a once per subset a, in the cell of marginal a that contains it. The
// squares are summed in subset order, the order in which a column probe
// (mech.L2Sensitivity's fallback) adds the rows, so the value has the
// probe's bits without its one full application per column.
func (m *marginalOperator) L2Sensitivity() float64 {
	s := 0.0
	for _, a := range m.subsets {
		th := m.s.Theta[a]
		s += th * th
	}
	return math.Sqrt(s)
}

// ---------------------------------------------------------------------------
// IdentityStrategy
// ---------------------------------------------------------------------------

// IdentityStrategy measures every cell of the data vector (the Identity
// baseline, and OPT_HDMM's safe fallback).
type IdentityStrategy struct {
	N int
}

// Name implements Strategy.
func (s *IdentityStrategy) Name() string { return "Identity" }

// Sensitivity is 1.
func (s *IdentityStrategy) Sensitivity() float64 { return 1 }

// Operator returns the N×N identity.
func (s *IdentityStrategy) Operator() kron.Linear { return identityOp{n: s.N} }

// Error is tr(WᵀW).
func (s *IdentityStrategy) Error(w *workload.Workload) (float64, error) {
	return w.GramTrace(), nil
}

// Reconstruct is the identity map.
func (s *IdentityStrategy) Reconstruct(y []float64, _ *kron.Workspace) ([]float64, error) {
	out := make([]float64, len(y))
	copy(out, y)
	return out, nil
}

type identityOp struct{ n int }

func (o identityOp) Dims() (int, int)                            { return o.n, o.n }
func (o identityOp) MatVec(dst, x []float64, _ *kron.Workspace)  { copy(dst, x) }
func (o identityOp) MatTVec(dst, y []float64, _ *kron.Workspace) { copy(dst, y) }
func (o identityOp) Sensitivity() float64                        { return 1 }
func (o identityOp) L2Sensitivity() float64                      { return 1 }
