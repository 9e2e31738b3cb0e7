package mat

import (
	"errors"
	"math"
)

// ErrNotPD is returned when a Cholesky factorization encounters a
// non-positive pivot.
var ErrNotPD = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of an SPD matrix M = L·Lᵀ.
type Cholesky struct {
	n int
	l *Dense // lower triangular, upper part unused
}

// NewCholesky factors the symmetric positive-definite matrix m.
func NewCholesky(m *Dense) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factor(m); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor factors the symmetric positive-definite matrix m into c, reusing
// c's storage when it last factored a matrix of m's size, so a caller that
// refactors one size over and over allocates once. m is left intact. After
// an error c holds no usable factorization until the next successful Factor.
func (c *Cholesky) Factor(m *Dense) error {
	if m.r != m.c {
		panic("mat: Cholesky of non-square matrix")
	}
	n := m.r
	if c.l == nil || c.n != n {
		c.n, c.l = n, NewDense(n, n)
	}
	l := c.l
	copy(l.data, m.data)
	for j := 0; j < n; j++ {
		d := l.data[j*n+j]
		for k := 0; k < j; k++ {
			v := l.data[j*n+k]
			d -= v * v
		}
		if d <= 0 {
			return ErrNotPD
		}
		d = math.Sqrt(d)
		l.data[j*n+j] = d
		lrowj := l.data[j*n : j*n+n]
		for i := j + 1; i < n; i++ {
			s := l.data[i*n+j]
			lrowi := l.data[i*n : i*n+n]
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			l.data[i*n+j] = s / d
		}
	}
	// Zero strictly-upper part so L can be used as a plain matrix in tests.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.data[i*n+j] = 0
		}
	}
	return nil
}

// L returns the lower-triangular factor (shared, do not modify).
func (c *Cholesky) L() *Dense { return c.l }

// Solve solves M·x = b in place and returns x (the same slice as b).
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic("mat: Cholesky.Solve dimension mismatch")
	}
	n, l := c.n, c.l.data
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l[i*n : i*n+n]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	// Back solve Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
	return b
}

// forwardSweep solves L·W = B in place over all m columns of b (row sweeps
// keep access contiguous). Shared by SolveMat and TraceSolve so their
// forward passes cannot drift apart — TraceSolve's bit-identity contract
// depends on both running exactly this accumulation order.
func (c *Cholesky) forwardSweep(b []float64, m int) {
	n, l := c.n, c.l.data
	for i := 0; i < n; i++ {
		bi := b[i*m : i*m+m]
		row := l[i*n : i*n+n]
		for k := 0; k < i; k++ {
			lik := row[k]
			if lik == 0 {
				continue
			}
			bk := b[k*m : k*m+m]
			for j := range bi {
				bi[j] -= lik * bk[j]
			}
		}
		d := row[i]
		for j := range bi {
			bi[j] /= d
		}
	}
}

// SolveMat solves M·X = B column-block-wise, overwriting and returning B.
func (c *Cholesky) SolveMat(b *Dense) *Dense {
	if b.r != c.n {
		panic("mat: Cholesky.SolveMat dimension mismatch")
	}
	n, m, l := c.n, b.c, c.l.data
	c.forwardSweep(b.data, m)
	for i := n - 1; i >= 0; i-- {
		bi := b.data[i*m : i*m+m]
		for k := i + 1; k < n; k++ {
			lki := l[k*n+i]
			if lki == 0 {
				continue
			}
			bk := b.data[k*m : k*m+m]
			for j := range bi {
				bi[j] -= lki * bk[j]
			}
		}
		d := l[i*n+i]
		for j := range bi {
			bi[j] /= d
		}
	}
	return b
}

// Inverse returns M⁻¹.
func (c *Cholesky) Inverse() *Dense {
	return c.SolveMat(Eye(c.n))
}

// TraceSolve returns tr(M⁻¹·Y), overwriting y as scratch (y must be n×n).
// It reuses the existing factorization and runs the same forward/backward
// sweeps as SolveMat, except that the backward sweep at row i only updates
// columns j ≤ i: column j of the solution contributes to the trace through
// element (j, j) alone, which rows i ≥ j fully determine, so the skipped
// upper-triangle work can never be read. Each element it does compute
// follows SolveMat's accumulation order exactly, making the result
// bit-identical to Trace(SolveMat(y)) at half the backward-sweep cost.
func (c *Cholesky) TraceSolve(y *Dense) float64 {
	if y.r != c.n || y.c != c.n {
		panic("mat: Cholesky.TraceSolve requires an n×n matrix")
	}
	n, l := c.n, c.l.data
	c.forwardSweep(y.data, n)
	// Backward sweep Lᵀ·Z = W, restricted to the columns the trace can
	// reach (j ≤ i at row i).
	for i := n - 1; i >= 0; i-- {
		bi := y.data[i*n : i*n+i+1]
		for k := i + 1; k < n; k++ {
			lki := l[k*n+i]
			if lki == 0 {
				continue
			}
			bk := y.data[k*n : k*n+i+1]
			for j := range bi {
				bi[j] -= lki * bk[j]
			}
		}
		d := l[i*n+i]
		for j := range bi {
			bi[j] /= d
		}
	}
	// The diagonal now holds Z's diagonal; summing it front-to-back keeps
	// the accumulation order of Trace(SolveMat(y)) byte-for-byte.
	return Trace(y)
}

// SolveSPD solves M·x = b for SPD M, allocating as needed.
func SolveSPD(m *Dense, b []float64) ([]float64, error) {
	ch, err := NewCholesky(m)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	copy(x, b)
	return ch.Solve(x), nil
}

// TraceSolve returns tr(M⁻¹·Y) for SPD M using one factorization of M and
// leaving y intact. Callers that already hold a factorization (or own y and
// can sacrifice it as scratch) should use Cholesky.TraceSolve directly.
func TraceSolve(m, y *Dense) (float64, error) {
	ch, err := NewCholesky(m)
	if err != nil {
		return 0, err
	}
	return ch.TraceSolve(y.Clone()), nil
}
