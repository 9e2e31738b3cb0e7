// Package lsmr implements the LSMR iterative least-squares solver of Fong &
// Saunders (2011), which HDMM uses to reconstruct data-vector estimates from
// noisy measurements of union-of-product strategies (Section 7.2): it needs
// only matrix–vector products with A and Aᵀ, which the implicit operators of
// package kron provide. Refine is the fixed-point alternative for operators
// whose normal matrix is certified close to the identity: it works on the
// normal equations, reading b once and then applying AᵀA at column size.
package lsmr

import (
	"math"
	"time"

	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Stopping reasons reported in Result.Stopped. Callers that must react to
// non-convergence (the union-reconstruction path refuses to serve an
// unconverged estimate) compare against StoppedMaxIter.
const (
	StoppedAtol    = "‖Aᵀr‖ small"
	StoppedBtol    = "residual small"
	StoppedExact   = "exact solution"
	StoppedZeroRHS = "b is zero or AᵀB is zero"
	StoppedMaxIter = "max iterations"
)

// Options controls the solver. Zero values select defaults.
type Options struct {
	MaxIter int     // default 4·cols
	Atol    float64 // default 1e-8
	Btol    float64 // default 1e-8
	// Trace, when non-nil, receives one StageSolve observation covering the
	// whole of a Solve; Refine does not read it (its caller times it). The
	// hook is outside the iteration loop and allocation-free, so a traced
	// solve performs exactly the allocations of an untraced one.
	Trace *obs.Trace
}

// withDefaults resolves the zero-value defaults against the problem size.
func (o Options) withDefaults(cols int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 4 * cols
	}
	if o.Atol <= 0 {
		o.Atol = 1e-8
	}
	if o.Btol <= 0 {
		o.Btol = 1e-8
	}
	return o
}

// lsmrParallelLen is the vector length above which the element-wise updates
// are chunked across cores.
const lsmrParallelLen = 1 << 16

// Result reports the solution and convergence information.
type Result struct {
	X       []float64
	Iters   int
	Resid   float64 // final ‖b − Ax‖ estimate
	Stopped string  // reason (one of the Stopped* constants)
}

// recurrence is the scalar state of one LSMR system: the Givens-rotation
// chain driving the h̄/x/h updates and the §5 residual-norm estimates.
type recurrence struct {
	// Rotation chain (LSMR paper notation).
	zetabar, alphabar, rho, rhobar, cbar, sbar float64
	// Residual-estimate state (§5).
	betadd, betad, rhodold, tautildeold, thetatilde, zeta, d float64
	normA2, maxrbar, minrbar, normb                          float64
	// Scratch carried from rotate to estimate within one iteration.
	chat, shat, c, s, thetabar, rhotemp, zetaold float64
}

func newRecurrence(alpha, beta float64) recurrence {
	return recurrence{
		zetabar:  alpha * beta,
		alphabar: alpha,
		rho:      1, rhobar: 1, cbar: 1, sbar: 0,
		betadd:  beta,
		rhodold: 1,
		minrbar: 1e100,
		normA2:  alpha * alpha,
		normb:   beta,
	}
}

// rotate advances the rotation chain with the iteration's fresh
// bidiagonalization scalars and returns the coefficients of the fused
// h̄/x/h update.
func (r *recurrence) rotate(alpha, beta float64) (c1, c2, c3 float64) {
	// Construct rotation P̂.
	chat, shat, alphahat := sym(r.alphabar, 0) // damp = 0
	// Rotation P.
	rhoold := r.rho
	c, s, rhoNew := sym(alphahat, beta)
	r.rho = rhoNew
	thetanew := s * alpha
	r.alphabar = c * alpha

	// Rotation P̄.
	rhobarold := r.rhobar
	r.zetaold = r.zeta
	r.thetabar = r.sbar * r.rho
	r.rhotemp = r.cbar * r.rho
	cbarNew, sbarNew, rhobarNew := sym(r.cbar*r.rho, thetanew)
	r.cbar, r.sbar, r.rhobar = cbarNew, sbarNew, rhobarNew
	r.zeta = r.cbar * r.zetabar
	r.zetabar = -r.sbar * r.zetabar

	r.chat, r.shat, r.c, r.s = chat, shat, c, s
	return r.thetabar * r.rho / (rhoold * rhobarold),
		r.zeta / (r.rho * r.rhobar),
		thetanew / r.rho
}

// estimate advances the residual-norm estimates (from the LSMR paper §5)
// and evaluates the stopping tests, returning the ‖b − Ax‖ estimate and a
// non-empty reason when a test fired.
func (r *recurrence) estimate(alpha, beta, normx float64, iter int, atol, btol float64) (float64, string) {
	betaacute := r.chat * r.betadd
	betacheck := -r.shat * r.betadd
	betahat := r.c * betaacute
	r.betadd = -r.s * betaacute

	thetatildeold := r.thetatilde
	ctildeold, stildeold, rhotildeold := sym(r.rhodold, r.thetabar)
	r.thetatilde = stildeold * r.rhobar
	r.rhodold = ctildeold * r.rhobar
	r.betad = -stildeold*r.betad + ctildeold*betahat

	r.tautildeold = (r.zetaold - thetatildeold*r.tautildeold) / rhotildeold
	taud := (r.zeta - r.thetatilde*r.tautildeold) / r.rhodold
	r.d += betacheck * betacheck
	normr := math.Sqrt(r.d + (r.betad-taud)*(r.betad-taud) + r.betadd*r.betadd)

	r.normA2 += beta * beta
	normA := math.Sqrt(r.normA2)
	r.normA2 += alpha * alpha

	if math.Abs(r.rhotemp) > r.maxrbar {
		r.maxrbar = math.Abs(r.rhotemp)
	}
	if iter > 1 && math.Abs(r.rhotemp) < r.minrbar {
		r.minrbar = math.Abs(r.rhotemp)
	}

	normar := math.Abs(r.zetabar)
	switch {
	case normar <= atol*normA*normr:
		return normr, StoppedAtol
	case normr <= btol*r.normb+atol*normA*normx:
		return normr, StoppedBtol
	case alpha == 0 || beta == 0:
		return normr, StoppedExact
	}
	return normr, ""
}

// Solve finds the minimum-norm least-squares solution of A·x ≈ b. Every
// operator application of the solve draws its scratch from ws, so the
// whole solve is O(1) in allocations regardless of iteration count.
func Solve(a kron.Linear, b []float64, ws *kron.Workspace, opts Options) Result {
	if opts.Trace == nil {
		return solve(a, b, ws, opts)
	}
	// The observation brackets the whole solve from outside the body — no
	// defer closure, no per-iteration work, zero allocations added.
	start := time.Now()
	res := solve(a, b, ws, opts)
	opts.Trace.Observe(obs.StageSolve, time.Since(start))
	return res
}

func solve(a kron.Linear, b []float64, ws *kron.Workspace, opts Options) Result {
	rows, cols := a.Dims()
	if len(b) != rows {
		panic("lsmr: rhs length mismatch")
	}
	opts = opts.withDefaults(cols)

	u := append([]float64(nil), b...)
	beta := norm2(u)
	if beta > 0 {
		scale(1/beta, u)
	}
	v := make([]float64, cols)
	alpha := 0.0
	if beta > 0 {
		a.MatTVec(v, u, ws)
		alpha = norm2(v)
		if alpha > 0 {
			scale(1/alpha, v)
		}
	}

	x := make([]float64, cols)
	if alpha*beta == 0 {
		return Result{X: x, Stopped: StoppedZeroRHS}
	}

	rec := newRecurrence(alpha, beta)

	h := append([]float64(nil), v...)
	hbar := make([]float64, cols)

	tmpRows := make([]float64, rows)
	tmpCols := make([]float64, cols)

	// The O(n) vector updates use the process-wide kernel bound (the
	// matvecs parallelize inside package kron). Results are bit-identical
	// at any value: the chunked updates are element-wise and the norm
	// reductions stay serial.
	workers := parallel.KernelWorkers()

	res := Result{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		// Bidiagonalization step: β·u = A·v − α·u ; α·v = Aᵀ·u − β·v.
		a.MatVec(tmpRows, v, ws)
		subScale(workers, u, tmpRows, alpha)
		beta = norm2(u)
		if beta > 0 {
			scale(1/beta, u)
			a.MatTVec(tmpCols, u, ws)
			subScale(workers, v, tmpCols, beta)
			alpha = norm2(v)
			if alpha > 0 {
				scale(1/alpha, v)
			}
		}

		// Rotations, then the fused h̄/x/h update, then the §5 estimates
		// and stopping tests.
		c1, c2, c3 := rec.rotate(alpha, beta)
		fusedUpdate(workers, hbar, x, h, v, c1, c2, c3)
		normx := norm2(x)
		normr, stopped := rec.estimate(alpha, beta, normx, iter, opts.Atol, opts.Btol)

		res.Iters = iter
		res.Resid = normr
		res.Stopped = stopped
		if res.Stopped != "" {
			break
		}
	}
	if res.Stopped == "" {
		res.Stopped = StoppedMaxIter
	}
	res.X = x
	return res
}

// Normal is a least-squares problem min ‖b − A·x‖ in the form Refine
// solves it: A, read once to form Aᵀb, and an operator N applying the
// normal matrix AᵀA at column size.
type Normal struct {
	A kron.Linear // m×n
	N kron.Linear // n×n, applies AᵀA
	// Delta certifies ‖I − AᵀA‖₂ ≤ Delta; Refine needs 0 ≤ Delta < 1.
	Delta float64
	// GramErr bounds ‖N − AᵀA‖₂ where N is built from factor Grams that
	// were rounded when formed (0 when N applies AᵀA exactly).
	GramErr float64
}

// StoppedUncertified is Refine's stopping reason when floating point
// cannot certify its iterate: the rounding allowance swallows the
// residual, or the gradient stopped contracting. Callers solve the
// problem another way (LSMR).
const StoppedUncertified = "certificate failed"

// Refine solves min ‖b − A·x‖ for an operator whose normal matrix
// N = AᵀA satisfies ‖I − N‖₂ ≤ delta < 1, by the fixed-point iteration on
// the normal equations
//
//	c = Aᵀb,  x₀ = c,  g_k = c − N·x_k,  x_{k+1} = x_k + g_k.
//
// It reads b once, for c and ‖b‖²; every step then costs one application
// of N at column size. Each step maps the gradient by g_{k+1} = (I − N)·g_k
// exactly, so ‖g_{k+1}‖ ≤ delta·‖g_k‖ bounds the gradient of the iterate
// that step k returns without computing it. The residual comes from the
// identity
//
//	‖r_k‖² = ‖b‖² − 2⟨x_k, c⟩ + ⟨x_k, N·x_k⟩,
//
// which cancels: its evaluation is off by at most the allowance
//
//	γ_{m+2}·‖b‖² + γ_{n+2}·(2·Σ|x_i·c_i| + Σ|x_i·(N·x)_i|) + GramErr·‖x_k‖²,
//
// doubled to cover the rounding of its own evaluation. Here γ_k =
// k·u/(1 − k·u) with u = 2⁻⁵³: the γ terms bound the three dot products
// (of lengths m and n) and the two operations combining them, and GramErr
// the gap between N and AᵀA. Like LSMR's own estimates, it takes the
// computed c and N·x as exact. With ‖r_k‖ taken low by the allowance where
// a low value is safe and high where a high one is, Refine stops after the
// fewest steps whose bound meets LSMR's own tests at opts.Atol and
// opts.Btol, taking √(1 − delta) ≤ ‖A‖₂ ≤ √(1 + delta):
//
//   - atol: delta·‖g_k‖ ≤ atol·√(1−delta)·(‖r_k‖ − √(1+delta)·‖g_k‖), where
//     the bracket is a lower bound on the new residual ‖r_{k+1}‖;
//   - btol: ‖r_k‖ ≤ btol·‖b‖ + atol·√(1−delta)·‖x_{k+1}‖, since
//     ‖r_{k+1}‖ ≤ ‖r_k‖ when delta < 1.
//
// When neither holds and the allowance is at least ‖r_k‖², or ‖g_k‖
// exceeds delta·‖g_{k−1}‖ (rounding, not the iteration, now sets the
// gradient), no later step can certify either: Refine stops at
// StoppedUncertified. Iters counts the steps, Resid estimates ‖b − A·x‖
// as √(‖r_k‖² − ‖g_k‖²) (exact to within delta·‖g_k‖²), and when
// opts.MaxIter steps pass without a certificate the result stops at
// StoppedMaxIter with the last iterate. It allocates O(1) vectors, runs
// every application through ws, keeps its reductions serial, and so is
// bit-identical at any worker count. It panics unless 0 ≤ delta < 1.
func Refine(p Normal, b []float64, ws *kron.Workspace, opts Options) Result {
	rows, cols := p.A.Dims()
	if len(b) != rows {
		panic("lsmr: rhs length mismatch")
	}
	if nr, nc := p.N.Dims(); nr != cols || nc != cols {
		panic("lsmr: normal operator shape mismatch")
	}
	delta := p.Delta
	if !(delta >= 0 && delta < 1) {
		panic("lsmr: Refine needs 0 ≤ delta < 1")
	}
	opts = opts.withDefaults(cols)

	x := make([]float64, cols)
	bb := mat.SqSum(b)
	if bb == 0 {
		return Result{X: x, Stopped: StoppedZeroRHS}
	}
	p.A.MatTVec(x, b, ws)
	if norm2(x) == 0 {
		return Result{X: x, Stopped: StoppedZeroRHS}
	}
	c := append([]float64(nil), x...)
	nx := make([]float64, cols)
	normb := math.Sqrt(bb * (1 - gamma(rows+2))) // ≤ ‖b‖
	normAlo, normAhi := math.Sqrt(1-delta), math.Sqrt(1+delta)

	res := Result{X: x, Stopped: StoppedMaxIter}
	prevg := math.Inf(1)
	for k := 1; k <= opts.MaxIter; k++ {
		p.N.MatVec(nx, x, ws)
		st := step(x, c, nx)
		r2, allow := p.identity(bb, st)
		rlo := math.Sqrt(math.Max(0, r2-allow))
		rhi := math.Sqrt(r2 + allow)
		normg := math.Sqrt(st.gg)
		res.Iters = k
		res.Resid = math.Sqrt(math.Max(0, r2-st.gg))
		if delta*normg <= opts.Atol*normAlo*(rlo-normAhi*normg) {
			res.Stopped = StoppedAtol
			break
		}
		if rhi <= opts.Btol*normb+opts.Atol*normAlo*norm2(x) {
			res.Stopped = StoppedBtol
			break
		}
		if !(r2-allow > 0) || !(normg <= delta*prevg) {
			res.Stopped = StoppedUncertified
			break
		}
		prevg = normg
	}
	return res
}

// Residual evaluates at x the residual identity Refine's tests read,
// ‖b‖² − 2⟨x, Aᵀb⟩ + ⟨x, N·x⟩, and the allowance Refine takes off it:
// ‖b − A·x‖² lies within the allowance of the value. It costs what one
// refinement step does.
func Residual(p Normal, b, x []float64) (r2, allowance float64) {
	_, cols := p.A.Dims()
	ws := kron.NewWorkspace()
	c := make([]float64, cols)
	p.A.MatTVec(c, b, ws)
	nx := make([]float64, cols)
	p.N.MatVec(nx, x, ws)
	return p.identity(mat.SqSum(b), step(append([]float64(nil), x...), c, nx))
}

// identity is the residual identity at the x a step's sums were taken at,
// with its allowance (see Refine).
func (p Normal) identity(bb float64, st stepSums) (r2, allowance float64) {
	rows, cols := p.A.Dims()
	r2 = bb - 2*st.xc + st.xn
	allowance = 2 * (gamma(rows+2)*bb + gamma(cols+2)*(2*st.absXC+st.absXN) + p.GramErr*st.xx)
	return r2, allowance
}

// gamma is γ_k = k·u/(1 − k·u), the relative rounding bound of a k-term
// floating-point sum of products (u = 2⁻⁵³).
func gamma(k int) float64 {
	const u = 0x1p-53
	return float64(k) * u / (1 - float64(k)*u)
}

// stepSums are the reductions of one refinement step, taken at x_k.
type stepSums struct {
	xc, xn       float64 // ⟨x, c⟩, ⟨x, N·x⟩
	absXC, absXN float64 // Σ|x_i·c_i|, Σ|x_i·(N·x)_i|
	xx, gg       float64 // ‖x‖², ‖g‖² for g = c − N·x
}

// step takes one refinement step in a single serial pass: it forms the
// gradient g = c − nx, the reductions the stopping tests read, and
// x += g.
func step(x, c, nx []float64) stepSums {
	var s stepSums
	nx = nx[:len(x)]
	c = c[:len(x)]
	for i, xi := range x {
		pc, pn := xi*c[i], xi*nx[i]
		s.xc += pc
		s.xn += pn
		s.absXC += math.Abs(pc)
		s.absXN += math.Abs(pn)
		s.xx += xi * xi
		g := c[i] - nx[i]
		s.gg += g * g
		x[i] = xi + g
	}
	return s
}

// subScale performs dst[i] = src[i] − a·dst[i], chunked across cores when
// the vector is long enough to amortize the fan-out; each index is written
// by exactly one chunk, so results match the serial loop bit-for-bit. The
// serial path runs inline without materializing a closure, keeping the
// per-iteration allocation count at zero.
func subScale(workers int, dst, src []float64, a float64) {
	n := len(dst)
	if workers > 1 && n >= lsmrParallelLen {
		parallel.ForChunked(workers, n, lsmrParallelLen/4, func(lo, hi int) {
			subScaleRange(dst, src, a, lo, hi)
		})
		return
	}
	subScaleRange(dst, src, a, 0, n)
}

func subScaleRange(dst, src []float64, a float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = src[i] - a*dst[i]
	}
}

// fusedUpdate performs the h̄/x/h updates in one pass per chunk, with the
// same chunking and determinism contract as subScale.
func fusedUpdate(workers int, hbar, x, h, v []float64, c1, c2, c3 float64) {
	n := len(x)
	if workers > 1 && n >= lsmrParallelLen {
		parallel.ForChunked(workers, n, lsmrParallelLen/4, func(lo, hi int) {
			fusedUpdateRange(hbar, x, h, v, c1, c2, c3, lo, hi)
		})
		return
	}
	fusedUpdateRange(hbar, x, h, v, c1, c2, c3, 0, n)
}

func fusedUpdateRange(hbar, x, h, v []float64, c1, c2, c3 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		hbar[i] = h[i] - c1*hbar[i]
		x[i] += c2 * hbar[i]
		h[i] = v[i] - c3*h[i]
	}
}

// sym computes a Givens rotation: (c, s, r) with c·a + s·b = r, -s·a + c·b = 0.
func sym(a, b float64) (c, s, r float64) {
	r = math.Hypot(a, b)
	if r == 0 {
		return 1, 0, 0
	}
	return a / r, b / r, r
}

// norm2 returns ‖x‖₂. The fast path is the plain sum of squares
// (mat.SqSum, the historical serial chain) — and only when
// that sum overflows to +Inf (large well-scaled vectors: ~1e154 entries
// square past MaxFloat64 while the norm itself is representable), or
// underflows all the way to zero on a non-zero vector, does it fall back
// to a scaled two-pass accumulation (serial: the fallback is too rare to
// optimize, and keeping it serial keeps its numerics trivially
// deterministic).
func norm2(x []float64) float64 {
	s := mat.SqSum(x)
	if !math.IsInf(s, 1) && s != 0 {
		return math.Sqrt(s) // includes NaN inputs: sqrt(NaN) = NaN
	}
	amax := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > amax {
			amax = a
		}
	}
	if amax == 0 || math.IsInf(amax, 1) {
		return amax // all-zero vector, or a genuine ±Inf entry
	}
	s = 0
	for _, v := range x {
		r := v / amax
		s += r * r
	}
	return amax * math.Sqrt(s)
}

func scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}
