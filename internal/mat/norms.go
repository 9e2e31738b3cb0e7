package mat

import "math"

// FrobSq returns the squared Frobenius norm ‖m‖²_F.
func FrobSq(m *Dense) float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// Trace returns the trace of a square matrix.
func Trace(m *Dense) float64 {
	if m.r != m.c {
		panic("mat: Trace of non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.r; i++ {
		s += m.data[i*m.c+i]
	}
	return s
}

// Sum returns the sum of all elements.
func Sum(m *Dense) float64 {
	s := 0.0
	for _, v := range m.data {
		s += v
	}
	return s
}

// ColAbsSums returns the vector of column absolute sums of m.
func ColAbsSums(m *Dense) []float64 {
	out := make([]float64, m.c)
	for i := 0; i < m.r; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += math.Abs(v)
		}
	}
	return out
}

// L1Norm returns the maximum column absolute sum ‖m‖₁, which equals the
// L1 sensitivity of the query set whose rows are the queries of m.
func L1Norm(m *Dense) float64 {
	mx := 0.0
	for _, v := range ColAbsSums(m) {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// TraceMul returns tr(A·B) for square A, B without forming the product.
func TraceMul(a, b *Dense) float64 {
	if a.r != a.c || b.r != b.c || a.r != b.r {
		panic("mat: TraceMul requires equal square matrices")
	}
	n := a.r
	s := 0.0
	for i := 0; i < n; i++ {
		arow := a.data[i*n : i*n+n]
		for j, v := range arow {
			s += v * b.data[j*n+i]
		}
	}
	return s
}

// Dot returns the inner product of two equal-length vectors, one serial
// chain.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// SqSum returns the sum of squares of x, one serial chain — the primitive
// behind Norm2 and lsmr's norm computations.
func SqSum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// Norm2 returns the Euclidean norm of a vector.
func Norm2(x []float64) float64 {
	return math.Sqrt(SqSum(x))
}

// Axpy computes y += a·x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	axpy(a, y, x)
}

// axpy computes dst[j] += alpha*src[j] for j in [0, len(dst)); len(src)
// must be at least len(dst). Elementwise, so the AVX2 lanes, where the
// hardware has them, give the scalar loop's bits.
func axpy(alpha float64, dst, src []float64) {
	if haveAVX2 {
		axpyAVX2(alpha, dst, src)
		return
	}
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] += alpha * v
	}
}

// LogVec writes math.Log(x[i]) into dst[i] for every i, bit for bit on
// every input; dst may alias x. Where the hardware has AVX2, groups of four
// positive, normal, finite values run the four-lane port of math.Log's
// amd64 sequence (logAVX2); any other group, and the tail, call math.Log.
func LogVec(dst, x []float64) {
	dst = dst[:len(x)]
	i := 0
	for haveAVX2 && len(x)-i >= 4 {
		i += logAVX2(dst[i:], x[i:])
		if len(x)-i >= 4 { // stopped before a group outside the domain
			for end := i + 4; i < end; i++ {
				dst[i] = math.Log(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		dst[i] = math.Log(x[i])
	}
}

// ScaleVec multiplies the vector by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}
