// Package mat provides the dense linear-algebra kernels used throughout the
// HDMM reproduction: row-major matrices, multiplication, Cholesky and
// triangular solves, symmetric eigendecomposition, pseudo-inverses and the
// matrix norms that appear in matrix-mechanism error expressions.
//
// The kernels have one arithmetic contract. Every output element is one
// serial accumulation chain, in the order the original scalar loops used
// (zero skips included), so strategies, measurements and snapshots are
// byte-identical to every release since the kernels were written, on every
// architecture and at any worker count. The kernels are register-tiled,
// and where they use SIMD lanes each lane is a separate output element,
// never a split of one element's sum. Multiplies and adds stay separate
// instructions (never FMA, whose single rounding would change the bits).
// Enabling or disabling the assembly (-tags hdmm_noasm) therefore changes
// throughput and never a bit of output.
//
// The package is deliberately small and allocation-conscious rather than
// general: everything HDMM needs, nothing more, stdlib only.
package mat

import (
	"fmt"
	"math"
)

// Arithmetic names the kernels' arithmetic contract where machine records
// report it (the "kernels" field of /healthz, /metrics and ledger rows).
// "reference" is the name the contract had while a second, lane-split
// backend existed, so records from before and after its removal compare.
const Arithmetic = "reference"

// Dense is a dense row-major matrix of float64.
type Dense struct {
	r, c int
	data []float64
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", r, c))
	}
	return &Dense{r: r, c: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// FromData wraps an existing backing slice (not copied) as an r×c matrix.
func FromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d×%d", len(data), r, c))
	}
	return &Dense{r: r, c: c, data: data}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// Ones returns an r×c matrix of ones.
func Ones(r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = 1
	}
	return m
}

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.r, m.c }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.r }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.c }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.c+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.c+j] = v }

// Row returns row i as a mutable slice view.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.c : (i+1)*m.c] }

// Data returns the backing slice (row-major).
func (m *Dense) Data() []float64 { return m.data }

// Reshape re-views m as an r×c matrix over data (which is not copied). It
// exists so hot loops can reuse one Dense header as a window over changing
// buffers instead of allocating a fresh header per step (see FromData).
func (m *Dense) Reshape(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d×%d", len(data), r, c))
	}
	m.r, m.c, m.data = r, c, data
	return m
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.r, m.c)
	copy(out.data, m.data)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.r != src.r || m.c != src.c {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.data, src.data)
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.c, m.r)
	for i := 0; i < m.r; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*m.r+i] = v
		}
	}
	return out
}

// TransposeInPlace transposes a square matrix in place.
func (m *Dense) TransposeInPlace() {
	if m.r != m.c {
		panic("mat: TransposeInPlace requires a square matrix")
	}
	n := m.r
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.data[i*n+j], m.data[j*n+i] = m.data[j*n+i], m.data[i*n+j]
		}
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Add adds b element-wise in place and returns m.
func (m *Dense) Add(b *Dense) *Dense {
	if m.r != b.r || m.c != b.c {
		panic("mat: Add dimension mismatch")
	}
	for i, v := range b.data {
		m.data[i] += v
	}
	return m
}

// AddScaled adds s*b element-wise in place and returns m.
func (m *Dense) AddScaled(s float64, b *Dense) *Dense {
	if m.r != b.r || m.c != b.c {
		panic("mat: AddScaled dimension mismatch")
	}
	for i, v := range b.data {
		m.data[i] += s * v
	}
	return m
}

// Sub subtracts b element-wise in place and returns m.
func (m *Dense) Sub(b *Dense) *Dense {
	if m.r != b.r || m.c != b.c {
		panic("mat: Sub dimension mismatch")
	}
	for i, v := range b.data {
		m.data[i] -= v
	}
	return m
}

// Zero sets all elements to zero.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// VStack stacks matrices vertically. All arguments must share a column count.
func VStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	c := ms[0].c
	r := 0
	for _, m := range ms {
		if m.c != c {
			panic("mat: VStack column mismatch")
		}
		r += m.r
	}
	out := NewDense(r, c)
	off := 0
	for _, m := range ms {
		copy(out.data[off:off+len(m.data)], m.data)
		off += len(m.data)
	}
	return out
}

// Equalish reports whether a and b have equal dimensions and all entries
// within tol of each other.
func Equalish(a, b *Dense, tol float64) bool {
	if a.r != b.r || a.c != b.c {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.r != b.r || a.c != b.c {
		panic("mat: MaxAbsDiff dimension mismatch")
	}
	d := 0.0
	for i := range a.data {
		if v := math.Abs(a.data[i] - b.data[i]); v > d {
			d = v
		}
	}
	return d
}
