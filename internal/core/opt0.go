package core

import (
	"math"
	"math/rand/v2"

	"repro/internal/mat"
	"repro/internal/optimize"
	"repro/internal/parallel"
)

// OPT0Options controls the OPT₀ optimizer.
type OPT0Options struct {
	P        int     // number of extra rows p (default n/16, min 1)
	Restarts int     // random restarts (default 1; Algorithm 2 loops outside)
	MaxIter  int     // L-BFGS iterations per restart (default 150)
	Tol      float64 // relative improvement tolerance (default 1e-7)
	Seed     uint64  // RNG seed for initialization
	Workers  int     // cores for concurrent restarts (<= 0: GOMAXPROCS(0))
}

func (o OPT0Options) withDefaults(n int) OPT0Options {
	if o.P <= 0 {
		o.P = n / 16
		if o.P < 1 {
			o.P = 1
		}
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 150
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// OPT0 solves Problem 2: it searches over p-Identity strategies A(Θ) for one
// minimizing ‖W·A⁺‖²_F = tr((AᵀA)⁻¹·WᵀW), taking the workload only through
// its Gram matrix Y = WᵀW (n×n). It returns the best strategy found and its
// objective value. Cost per iteration is O(p·n²) (Theorem 4).
//
// Restarts run concurrently on up to Workers cores. Each restart draws its
// initialization from a PCG stream derived from (Seed, restart index) — never
// from a shared RNG, whose draw order would couple results to scheduling —
// and the winner is folded in restart order with a strict comparison, so the
// returned strategy is bit-identical for every Workers value.
func OPT0(y *mat.Dense, opts OPT0Options) (*PIdentity, float64) {
	n := y.Rows()
	opts = opts.withDefaults(n)

	type restartResult struct {
		s *PIdentity
		e float64
	}
	results := parallel.Map(opts.Workers, opts.Restarts, func(r int) restartResult {
		rng := rand.New(rand.NewPCG(parallel.DeriveSeed(opts.Seed, uint64(r)), 0x0937))
		theta := mat.NewDense(opts.P, n)
		td := theta.Data()
		for i := range td {
			td[i] = rng.Float64()
		}
		s, e := opt0From(y, theta, opts)
		return restartResult{s, e}
	})

	best := identityPIdentity(n)
	bestErr := mat.Trace(y) // Identity strategy error as the baseline
	for _, r := range results {
		if r.e < bestErr {
			best, bestErr = r.s, r.e
		}
	}
	return best, bestErr
}

// opt0From runs a single L-BFGS descent from the given Θ initialization.
// It is also used by OPT⊗'s block-cyclic updates for warm starts.
// thetaCap bounds the p-Identity parameters. The objective is flat as any
// θ → ∞ (the identity rows' weight saturates at 0), and letting the line
// search run down that valley destroys the Woodbury inverse numerically;
// at 1e4 the strategy is within 1e-4 of the saturated one while (AᵀA)⁻¹
// keeps ~8 accurate digits.
const thetaCap = 1e4

func opt0From(y *mat.Dense, theta0 *mat.Dense, opts OPT0Options) (*PIdentity, float64) {
	p, n := theta0.Dims()
	obj := newOpt0Objective(y, p, n)
	lb := make([]float64, p*n) // Θ >= 0
	ub := make([]float64, p*n)
	for i := range ub {
		ub[i] = thetaCap
	}
	res := optimize.MinimizeBox(obj.eval, theta0.Data(), lb, ub, optimize.Options{
		MaxIter: opts.MaxIter,
		Tol:     opts.Tol,
	})
	theta := mat.FromData(p, n, res.X)
	checkNonNegative(theta)
	return NewPIdentity(theta), res.F
}

// NewOpt0ObjectiveForTrace exposes the raw OPT₀ objective/gradient closure
// for instrumented runs (the error-vs-time trajectories of Figure 5).
func NewOpt0ObjectiveForTrace(y *mat.Dense, p int) func(x, grad []float64) float64 {
	obj := newOpt0Objective(y, p, y.Rows())
	return obj.eval
}

// opt0Objective evaluates C(A(Θ)) = tr((AᵀA)⁻¹·Y) and ∂C/∂Θ in O(pn²)
// using the Woodbury structure of Appendix A.3. It owns every buffer an
// evaluation touches, the factorization and the Θ header included, so an
// evaluation allocates nothing.
//
// Every output bit is the one the plain sequence of passes in the
// derivation below gives (opt0_ref_test.go keeps that sequence as the
// oracle): the fused passes apply the same operations to each element in
// the same order, and the products that the sparse dots and mat.MulOn /
// mat.MulTNOn leave out, by Θ's support lists, have an exactly zero
// factor. Such a product adds ±0 to a chain that starts at +0, which
// cannot change it while Θ and Y are finite.
type opt0Objective struct {
	y    *mat.Dense // n×n workload Gram
	p, n int

	theta mat.Dense    // p×n header over the point being evaluated
	ch    mat.Cholesky // factor of M, storage reused across evaluations
	nz    [][]int      // nz[k]: the columns where Θ's row k is nonzero
	colNz [][]int      // colNz[j]: the rows where Θ's column j is nonzero
	acc   []float64    // p sparse-dot accumulators

	m    *mat.Dense // p×p: I + ΘΘᵀ
	u    *mat.Dense // p×n: Θ·S
	v    *mat.Dense // p×n: U·Y
	p2   *mat.Dense // p×p: V·Uᵀ
	z    *mat.Dense // n×n: X·Y·X
	nn   *mat.Dense // n×n: Θᵀ·M⁻¹·Θ·z
	pn   *mat.Dense // p×n workspace
	pn2  *mat.Dense // p×n workspace
	cols []float64  // colsum_j = 1/d_j
}

func newOpt0Objective(y *mat.Dense, p, n int) *opt0Objective {
	return &opt0Objective{
		y: y, p: p, n: n,
		nz:    supportLists(p, n),
		colNz: supportLists(n, p),
		acc:   make([]float64, p),
		m:     mat.NewDense(p, p),
		u:     mat.NewDense(p, n),
		v:     mat.NewDense(p, n),
		p2:    mat.NewDense(p, p),
		z:     mat.NewDense(n, n),
		nn:    mat.NewDense(n, n),
		pn:    mat.NewDense(p, n),
		pn2:   mat.NewDense(p, n),
		cols:  make([]float64, n),
	}
}

// supportLists returns r empty lists, each with room for c indices, on
// one backing array.
func supportLists(r, c int) [][]int {
	buf := make([]int, r*c)
	lists := make([][]int, r)
	for i := range lists {
		lists[i] = buf[i*c : i*c : i*c+c]
	}
	return lists
}

// dotsOn sets out[r] = Σ_{k∈idx} x[k]·b[lo+r, k] for r < len(out): one
// chain per output over idx in order, starting from +0. With idx the
// nonzero positions of x it has the bits of the dense dot over every k
// ascending, as long as b is finite. Rows run four at a time, their chains
// independent; a short last tile overlaps the one before it and recomputes
// the same bits.
func dotsOn(out, x []float64, idx []int, b *mat.Dense, lo int) {
	n, bd := b.Cols(), b.Data()
	row := func(r int) []float64 { return bd[(lo+r)*n : (lo+r)*n+n] }
	if len(out) < 4 {
		for r := range out {
			br := row(r)
			s := 0.0
			for _, k := range idx {
				s += x[k] * br[k]
			}
			out[r] = s
		}
		return
	}
	for r := 0; r < len(out); r += 4 {
		r = min(r, len(out)-4)
		b0, b1, b2, b3 := row(r), row(r+1), row(r+2), row(r+3)
		var s0, s1, s2, s3 float64
		for _, k := range idx {
			xk := x[k]
			s0 += xk * b0[k]
			s1 += xk * b1[k]
			s2 += xk * b2[k]
			s3 += xk * b3[k]
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
}

// correctX overwrites nn with N = Θᵀ·M⁻¹·Θ·z, the correction that turns
// the S-scaled z into B·S·z (B = I − Θᵀ·M⁻¹·Θ).
func (o *opt0Objective) correctX() {
	mat.MulOn(o.pn, &o.theta, o.nz, o.z)
	o.ch.SolveMat(o.pn)
	mat.MulTNOn(o.nn, &o.theta, o.colNz, o.pn)
}

// eval computes the objective and, if grad is non-nil, the gradient.
//
// Derivation. With S = diag(colsum), B = I − Θᵀ·M⁻¹·Θ, M = I_p + ΘΘᵀ:
//
//	X  := (AᵀA)⁻¹ = S·B·S
//	C   = tr(X·Y) = tr(S²·Y) − tr(M⁻¹·(ΘS)·Y·(ΘS)ᵀ)
//	∂C/∂A = −2·A·X·Y·X =: G_A
//	∂C/∂Θ[k,l] = −d_l²·(G_A[l,l] + Σ_k' Θ[k',l]·G_A[n+k',l]) + d_l·G_A[n+k,l]
//
// The last line applies the chain rule through the column normalizer D
// (every Θ entry in column l perturbs d_l = 1/colsum_l).
func (o *opt0Objective) eval(x, grad []float64) float64 {
	p, n := o.p, o.n
	theta := o.theta.Reshape(p, n, x)

	cols := o.cols
	for j := range cols {
		cols[j] = 1
	}
	// colsum, and each row's support: the store is unconditional and the
	// count moves past nonzeros only.
	for k := 0; k < p; k++ {
		row := theta.Row(k)
		nz := o.nz[k][:n]
		cnt := 0
		for j, v := range row {
			cols[j] += v
			nz[cnt] = j
			if v != 0 {
				cnt++
			}
		}
		o.nz[k] = nz[:cnt]
	}

	// M = I + ΘΘᵀ, factor once. Row i's dots run over Θ's row-i support;
	// the lower triangle mirrors the upper (Θ_ik·Θ_jk = Θ_jk·Θ_ik).
	md := o.m.Data()
	for i := 0; i < p; i++ {
		acc := o.acc[:p-i]
		dotsOn(acc, theta.Row(i), o.nz[i], theta, i)
		for r, s := range acc {
			md[i*p+i+r] = s
			md[(i+r)*p+i] = s
		}
		md[i*p+i]++
	}
	if err := o.ch.Factor(o.m); err != nil {
		for i := range grad {
			grad[i] = 0
		}
		return math.Inf(1)
	}

	// Objective: C = Σ_j colsum_j²·Y_jj − tr(M⁻¹·(ΘS)·Y·(ΘS)ᵀ).
	for k := 0; k < p; k++ {
		src := theta.Row(k)
		dst := o.u.Row(k)
		for j, v := range src {
			dst[j] = v * cols[j]
		}
	}
	// U is zero wherever Θ is, and nonzero elsewhere on Θ's box (colsum
	// ≥ 1), so Θ's row supports are U's. Off the box a listed zero of U
	// would add ±0 to a finite chain, which changes no bit either.
	mat.MulOn(o.v, o.u, o.nz, o.y)
	// P₂ = V·Uᵀ column by column, each over U's row-b support.
	p2 := o.p2.Data()
	for b := 0; b < p; b++ {
		dotsOn(o.acc, o.u.Row(b), o.nz[b], o.v, 0)
		for a, s := range o.acc {
			p2[a*p+b] = s
		}
	}
	c := 0.0
	for j := 0; j < n; j++ {
		c += cols[j] * cols[j] * o.y.At(j, j)
	}
	// tr(M⁻¹·P₂) straight off the factorization: TraceSolve skips the
	// upper-triangle back-substitution a full SolveMat would compute only
	// to be discarded by the trace (bit-identical diagonal either way).
	c -= o.ch.TraceSolve(o.p2)

	if grad == nil {
		return c
	}
	// Θ's column supports, rows ascending, for Θᵀ's products.
	for j := range o.colNz {
		o.colNz[j] = o.colNz[j][:0]
	}
	for k, idx := range o.nz {
		for _, j := range idx {
			o.colNz[j] = append(o.colNz[j], k)
		}
	}

	// Z = X·Y·X = S·B·S·Y·S·B·S. X is symmetric, so Z = X·(X·Y)ᵀ: three
	// passes over n² apply the S and D scalings and subtract the two
	// corrections N, the middle pass transposing in place.
	z, nn := o.z.Data(), o.nn.Data()
	yd := o.y.Data()
	for i := 0; i < n; i++ { // z = S·Y
		si := cols[i]
		yi := yd[i*n : i*n+n]
		zi := z[i*n : i*n+n][:len(yi)]
		for j, v := range yi {
			zi[j] = v * si
		}
	}
	o.correctX()
	// z = S·(S·(z − N))ᵀ, i.e. z′_ji = ((z_ij − N_ij)·s_i)·s_j: the
	// second product's S·Y·X from the first's X·Y.
	for i := 0; i < n; i++ {
		si := cols[i]
		zi, ni := z[i*n:i*n+n], nn[i*n:i*n+n]
		zi[i] = ((zi[i] - ni[i]) * si) * si
		for j := i + 1; j < n; j++ {
			sj := cols[j]
			up := ((zi[j] - ni[j]) * si) * sj
			zi[j] = ((z[j*n+i] - nn[j*n+i]) * sj) * si
			z[j*n+i] = up
		}
	}
	o.correctX()
	// z = D·S·(z − N): Z, scaled for the gradient below.
	for i := 0; i < n; i++ {
		si, di := cols[i], 1/cols[i]
		zi := z[i*n : i*n+n]
		ni := nn[i*n : i*n+n][:len(zi)]
		for j := range zi {
			zi[j] = ((zi[j] - ni[j]) * si) * di
		}
	}

	// gtop[l] = G_A[l,l] = −2·d_l·Z[l,l] (top block of A is D).
	// Gbot = −2·Θ·(D·Z) (bottom block of A is Θ·D).
	// o.z now holds D·Z; its diagonal gives gtop via d_l·Z[l,l] = (DZ)[l,l].
	mat.MulOn(o.pn2, theta, o.nz, o.z) // Θ·(D·Z); Gbot = −2·this
	pn2 := o.pn2.Data()
	for l := 0; l < n; l++ {
		dl := 1 / cols[l]
		gtop := -2 * z[l*n+l]
		sl := 0.0
		for k := 0; k < p; k++ {
			sl += x[k*n+l] * (-2 * pn2[k*n+l])
		}
		base := -dl * dl * (gtop + sl)
		for k := 0; k < p; k++ {
			grad[k*n+l] = base + dl*(-2*pn2[k*n+l])
		}
	}
	return c
}
