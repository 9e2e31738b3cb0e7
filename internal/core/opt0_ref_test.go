package core

import (
	"math"

	"repro/internal/mat"
)

// refOpt0Objective is the OPT₀ objective as the plain sequence of passes
// its derivation spells out: X·q applied twice by leftX (row scalings, a
// dense Sub, TransposeInPlace between the two), M = I + ΘΘᵀ and P₂ = V·Uᵀ
// by dense MulNT, a fresh Cholesky per evaluation. It is the oracle the
// fused opt0Objective must match bit for bit.
type refOpt0Objective struct {
	y    *mat.Dense // n×n workload Gram
	p, n int

	m    *mat.Dense // p×p: I + ΘΘᵀ
	u    *mat.Dense // p×n: Θ·S
	v    *mat.Dense // p×n: U·Y
	p2   *mat.Dense // p×p: V·Uᵀ
	z    *mat.Dense // n×n: X·Y·X
	nn   *mat.Dense // n×n workspace
	pn   *mat.Dense // p×n workspace
	pn2  *mat.Dense // p×n workspace
	cols []float64  // colsum_j = 1/d_j
}

func newRefOpt0Objective(y *mat.Dense, p, n int) *refOpt0Objective {
	return &refOpt0Objective{
		y: y, p: p, n: n,
		m:    mat.NewDense(p, p),
		u:    mat.NewDense(p, n),
		v:    mat.NewDense(p, n),
		p2:   mat.NewDense(p, p),
		z:    mat.NewDense(n, n),
		nn:   mat.NewDense(n, n),
		pn:   mat.NewDense(p, n),
		pn2:  mat.NewDense(p, n),
		cols: make([]float64, n),
	}
}

// leftX overwrites q with X·q where X = (AᵀA)⁻¹ = S·B·S,
// B = I − Θᵀ·M⁻¹·Θ, S = diag(cols). O(p·n²).
func (o *refOpt0Objective) leftX(ch *mat.Cholesky, theta *mat.Dense, q *mat.Dense) {
	n := o.n
	cols := o.cols
	// q ← S·q.
	for i := 0; i < n; i++ {
		si := cols[i]
		row := q.Row(i)
		for j := range row {
			row[j] *= si
		}
	}
	// q ← q − Θᵀ·M⁻¹·Θ·q.
	mat.Mul(o.pn, theta, q)
	ch.SolveMat(o.pn)
	mat.MulTN(o.nn, theta, o.pn)
	q.Sub(o.nn)
	// q ← S·q.
	for i := 0; i < n; i++ {
		si := cols[i]
		row := q.Row(i)
		for j := range row {
			row[j] *= si
		}
	}
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
func (o *refOpt0Objective) eval(x, grad []float64) float64 {
	p, n := o.p, o.n
	theta := mat.FromData(p, n, x)

	cols := o.cols
	for j := range cols {
		cols[j] = 1
	}
	for k := 0; k < p; k++ {
		row := theta.Row(k)
		for j, v := range row {
			cols[j] += v
		}
	}

	// M = I + ΘΘᵀ, factor once.
	mat.MulNT(o.m, theta, theta)
	for i := 0; i < p; i++ {
		o.m.Set(i, i, o.m.At(i, i)+1)
	}
	ch, err := mat.NewCholesky(o.m)
	if err != nil {
		if grad != nil {
			for i := range grad {
				grad[i] = 0
			}
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
	mat.Mul(o.v, o.u, o.y)
	mat.MulNT(o.p2, o.v, o.u)
	c := 0.0
	for j := 0; j < n; j++ {
		c += cols[j] * cols[j] * o.y.At(j, j)
	}
	// tr(M⁻¹·P₂) straight off the factorization: TraceSolve skips the
	// upper-triangle back-substitution a full SolveMat would compute only
	// to be discarded by the trace (bit-identical diagonal either way).
	c -= ch.TraceSolve(o.p2)

	if grad == nil {
		return c
	}

	// Z = X·Y·X. X is symmetric, so Z = X·(X·Y)ᵀ and Z is symmetric.
	o.z.CopyFrom(o.y)
	o.leftX(ch, theta, o.z) // Z = X·Y
	o.z.TransposeInPlace()  // Z = Y·X
	o.leftX(ch, theta, o.z) // Z = X·Y·X

	// gtop[l] = G_A[l,l] = −2·d_l·Z[l,l] (top block of A is D).
	// Gbot = −2·Θ·(D·Z) (bottom block of A is Θ·D).
	for i := 0; i < n; i++ {
		di := 1 / cols[i]
		row := o.z.Row(i)
		for j := range row {
			row[j] *= di
		}
	}
	// o.z now holds D·Z; its diagonal gives gtop via d_l·Z[l,l] = (DZ)[l,l].
	mat.Mul(o.pn2, theta, o.z) // Θ·(D·Z); Gbot = −2·this

	g := mat.FromData(p, n, grad)
	for l := 0; l < n; l++ {
		dl := 1 / cols[l]
		gtop := -2 * o.z.At(l, l)
		sl := 0.0
		for k := 0; k < p; k++ {
			sl += theta.At(k, l) * (-2 * o.pn2.At(k, l))
		}
		base := -dl * dl * (gtop + sl)
		for k := 0; k < p; k++ {
			g.Set(k, l, base+dl*(-2*o.pn2.At(k, l)))
		}
	}
	return c
}
