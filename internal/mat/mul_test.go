package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// The scalar loops below are the multiply kernels as they were before the
// register tiles: the definition of Mul, MulTN and the reference MulNT,
// bit for bit.

func scalarMul(a, b *Dense) *Dense {
	dst := NewDense(a.r, b.c)
	n := b.c
	for i := 0; i < a.r; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*n : k*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return dst
}

func scalarMulTN(a, b *Dense) *Dense {
	dst := NewDense(a.c, b.c)
	n := b.c
	for k := 0; k < a.r; k++ {
		arow := a.Row(k)
		brow := b.data[k*n : k*n+n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := dst.data[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return dst
}

func scalarMulNT(a, b *Dense) *Dense {
	dst := NewDense(a.r, b.r)
	for i := 0; i < a.r; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		for j := 0; j < b.r; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			crow[j] = s
		}
	}
	return dst
}

// fillModes generate operand data: dense gaussian, zero-heavy entries
// (every axpy kernel's av == 0 skip), and fully zero rows (the
// strongest skip pattern, plus exact-zero dot products).
var fillModes = []struct {
	name string
	fill func(rng *rand.Rand, d []float64, cols int)
}{
	{"dense", func(rng *rand.Rand, d []float64, _ int) {
		for i := range d {
			d[i] = rng.NormFloat64()
		}
	}},
	{"zero-heavy", func(rng *rand.Rand, d []float64, _ int) {
		for i := range d {
			if rng.Float64() < 0.5 {
				d[i] = rng.NormFloat64()
			}
		}
	}},
	{"zero-rows", func(rng *rand.Rand, d []float64, cols int) {
		if cols == 0 {
			return
		}
		for i := range d {
			if (i/cols)%2 == 0 {
				d[i] = rng.NormFloat64()
			}
		}
	}},
}

func fillDense(rng *rand.Rand, mode func(*rand.Rand, []float64, int), r, c int) *Dense {
	m := NewDense(r, c)
	mode(rng, m.Data(), c)
	return m
}

func wantBitIdentical(t *testing.T, op string, want, got *Dense) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: element %d differs in bits: want %g, got %g", op, i, wd[i], gd[i])
		}
	}
}

// mulShapes are (m, k, n) for an m×k times k×n product. n straddles the
// sixteen-column assembly strip and the four-column Go tile; k straddles
// the kBlock panel; m covers the four-row and two-row tiles of MulNT. The
// last four cross parallelFlops, so workers > 1 shards them.
var mulShapes = [][3]int{
	{0, 5, 3}, {3, 0, 2}, {3, 5, 0},
	{1, 1, 1}, {2, 3, 4}, {3, 7, 5}, {4, 9, 15}, {5, 16, 16},
	{7, 115, 17}, {7, 115, 115}, {9, 3, 31}, {3, 2, 32}, {6, 8, 33},
	{2, 257, 47}, {1, 300, 20}, {8, 1, 64}, {11, 13, 7},
	{130, 70, 131}, {33, 256, 40}, {17, 513, 33}, {1024, 2, 129},
}

// nonFinite fills d with Gaussians and, every few entries, ±Inf or NaN:
// the B operand of the skip tests, where a zero multiplier that is not
// skipped turns an Inf into NaN.
func nonFinite(rng *rand.Rand, d []float64, _ int) {
	for i := range d {
		switch rng.IntN(8) {
		case 0:
			d[i] = math.Inf(1)
		case 1:
			d[i] = math.Inf(-1)
		case 2:
			d[i] = math.NaN()
		default:
			d[i] = rng.NormFloat64()
		}
	}
}

// wantSameBitsOrNaN is wantSameBits where NaN matches NaN: which of two NaN
// operands an addition returns depends on the operand order the compiler
// or the assembly picks, so no kernel, the scalar loops included, pins NaN
// payloads. Every other value must match bit for bit, and NaN must appear
// exactly where the scalar loop has it.
func wantSameBitsOrNaN(t *testing.T, what string, want, got *Dense) {
	t.Helper()
	for i, w := range want.data {
		g := got.data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %g, scalar reference %g", what, i, g, w)
		}
	}
}

// mulFills pair an A fill with a B fill: the three finite modes on both
// operands, and zero-heavy A against a non-finite B.
var mulFills = []struct {
	name string
	a, b func(*rand.Rand, []float64, int)
}{
	{fillModes[0].name, fillModes[0].fill, fillModes[0].fill},
	{fillModes[1].name, fillModes[1].fill, fillModes[1].fill},
	{fillModes[2].name, fillModes[2].fill, fillModes[2].fill},
	{"zero-A/nonfinite-B", fillModes[1].fill, nonFinite},
}

// checkAxpyKernel pins one of Mul/MulTN to its scalar loop. run is the
// public entry point, goTiles computes the same product with the Go tiles
// alone (what every non-AVX2 build runs). The public kernel runs at
// Workers 1/4/8.
func checkAxpyKernel(t *testing.T, name string, ref func(a, b *Dense) *Dense,
	run func(dst, a, b *Dense) *Dense, goTiles func(dst, a, b *Dense),
	aShape func(m, k int) (int, int)) {
	t.Helper()
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	for _, fill := range mulFills {
		for _, sh := range mulShapes {
			m, k, n := sh[0], sh[1], sh[2]
			rng := rand.New(rand.NewPCG(uint64(m*1_000_000+k*1000+n), 0x5ca1))
			ar, ac := aShape(m, k)
			a := fillDense(rng, fill.a, ar, ac)
			b := fillDense(rng, fill.b, k, n)
			want := ref(a, b)
			got := NewDense(m, n)
			goTiles(got, a, b)
			wantSameBitsOrNaN(t, fmt.Sprintf("%s %s %v Go tiles", name, fill.name, sh), want, got)
			for _, workers := range []int{1, 4, 8} {
				SetWorkers(workers)
				got := nanDense(m, n)
				run(got, a, b)
				wantSameBitsOrNaN(t, fmt.Sprintf("%s %s %v workers=%d", name, fill.name, sh, workers), want, got)
			}
			SetWorkers(1)
		}
	}
}

// TestMulMatchesScalarReference pins Mul byte-for-byte to the scalar i-k-j
// loop: every tile edge, zeros in A skipped even against Inf and NaN in B,
// Workers 1/4/8, and the Go tiles run alone.
func TestMulMatchesScalarReference(t *testing.T) {
	checkAxpyKernel(t, "Mul", scalarMul, Mul,
		func(dst, a, b *Dense) { axpyRows(dst, a.data, a.c, 1, b, 0, a.r, 0) },
		func(m, k int) (int, int) { return m, k })
}

// TestMulTNMatchesScalarReference is TestMulMatchesScalarReference for
// MulTN, whose kernel reads A column-major.
func TestMulTNMatchesScalarReference(t *testing.T) {
	checkAxpyKernel(t, "MulTN", scalarMulTN, MulTN,
		func(dst, a, b *Dense) { axpyRows(dst, a.data, 1, a.c, b, 0, a.c, 0) },
		func(m, k int) (int, int) { return k, m })
}

// support lists, for each row of a (or each column, when byCol is set),
// the ascending positions of its nonzero entries.
func support(a *Dense, byCol bool) [][]int {
	outer, inner := a.r, a.c
	at := func(i, k int) float64 { return a.data[i*a.c+k] }
	if byCol {
		outer, inner = a.c, a.r
		at = func(i, k int) float64 { return a.data[k*a.c+i] }
	}
	nz := make([][]int, outer)
	for i := range nz {
		for k := 0; k < inner; k++ {
			if at(i, k) != 0 {
				nz[i] = append(nz[i], k)
			}
		}
	}
	return nz
}

// TestMulOnMatchesScalarReference pins MulOn, given the nonzeros of A's
// rows, to the same scalar loop as Mul, on the same shapes and fills.
func TestMulOnMatchesScalarReference(t *testing.T) {
	checkAxpyKernel(t, "MulOn", scalarMul,
		func(dst, a, b *Dense) *Dense { return MulOn(dst, a, support(a, false), b) },
		func(dst, a, b *Dense) { axpyRowsOn(dst, a.data, a.c, 1, support(a, false), b, 0, a.r, 0) },
		func(m, k int) (int, int) { return m, k })
}

// TestMulTNOnMatchesScalarReference is TestMulOnMatchesScalarReference
// for MulTNOn, given the nonzeros of A's columns.
func TestMulTNOnMatchesScalarReference(t *testing.T) {
	checkAxpyKernel(t, "MulTNOn", scalarMulTN,
		func(dst, a, b *Dense) *Dense { return MulTNOn(dst, a, support(a, true), b) },
		func(dst, a, b *Dense) { axpyRowsOn(dst, a.data, 1, a.c, support(a, true), b, 0, a.c, 0) },
		func(m, k int) (int, int) { return k, m })
}

// TestMulNTMatchesScalarReference pins MulNT byte-for-byte to the scalar
// dot loop at Workers 1/4/8, and its Go tiles run alone (the AVX2 bands
// take only shards of four rows or more). MulNT does not skip zeros, so a
// zero in A against an Inf in B must give NaN.
func TestMulNTMatchesScalarReference(t *testing.T) {
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	for _, fill := range mulFills {
		for _, sh := range mulShapes {
			m, k, n := sh[0], sh[1], sh[2]
			rng := rand.New(rand.NewPCG(uint64(m*1_000_000+k*1000+n), 0x47))
			a := fillDense(rng, fill.a, m, k)
			b := fillDense(rng, fill.b, n, k)
			want := scalarMulNT(a, b)
			got := nanDense(m, n)
			contractNTTiles(got, a, b, 0, n)
			wantSameBitsOrNaN(t, fmt.Sprintf("MulNT %s %v Go tiles", fill.name, sh), want, got)
			for _, workers := range []int{1, 4, 8} {
				SetWorkers(workers)
				got := nanDense(m, n)
				MulNT(got, a, b)
				wantSameBitsOrNaN(t, fmt.Sprintf("MulNT %s %v workers=%d", fill.name, sh, workers), want, got)
			}
			SetWorkers(1)
		}
	}
}

// TestAxpyMatchesScalarReference pins the axpy primitive, and Gram and
// MatTVec built on it, to their scalar loops bit for bit. The lengths
// straddle the AVX2 strip widths and the fills span magnitudes, signed
// zeros and sign cancellation; Gram and MatTVec keep their zero skips,
// which only the zero-heavy fills reach.
func TestAxpyMatchesScalarReference(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 1031}
	fills := []struct {
		name string
		gen  func(rng *rand.Rand, i int) float64
	}{
		{"gaussian", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() }},
		{"alternating", func(_ *rand.Rand, i int) float64 { return float64(1-2*(i%2)) * float64(i+1) }},
		{"magnitudes", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() * math.Pow(2, float64(rng.IntN(120)-60)) }},
		{"signed-zeros", func(rng *rand.Rand, i int) float64 {
			if i%3 == 0 {
				return math.Copysign(0, float64(1-2*(i%2)))
			}
			return rng.NormFloat64()
		}},
	}
	for _, fill := range fills {
		rng := rand.New(rand.NewPCG(0xa5, 0x2e))
		for _, n := range lengths {
			src := make([]float64, n)
			want := make([]float64, n)
			for i := range src {
				src[i] = fill.gen(rng, i)
				want[i] = fill.gen(rng, i+1)
			}
			got := append([]float64(nil), want...)
			for i, v := range src {
				want[i] += -1.5 * v
			}
			axpy(-1.5, got, src)
			wantBitIdentical(t, fmt.Sprintf("axpy %s n=%d", fill.name, n), FromData(1, n, want), FromData(1, n, got))
		}
	}

	for _, mode := range fillModes {
		for _, sh := range [][2]int{{0, 3}, {3, 0}, {1, 1}, {7, 1}, {3, 9}, {5, 17}, {6, 100}, {80, 80}} {
			m, k := sh[0], sh[1]
			rng := rand.New(rand.NewPCG(uint64(m*1000+k), 0xa4f))
			a := fillDense(rng, mode.fill, m, k)
			y := make([]float64, m)
			mode.fill(rng, y, m)

			gram := NewDense(k, k)
			for r := 0; r < m; r++ {
				row := a.Row(r)
				for i, vi := range row {
					if vi == 0 {
						continue
					}
					for j := i; j < k; j++ {
						gram.data[i*k+j] += vi * row[j]
					}
				}
			}
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					gram.data[j*k+i] = gram.data[i*k+j]
				}
			}
			wantBitIdentical(t, fmt.Sprintf("Gram %s %v", mode.name, sh), gram, Gram(nil, a))

			mtv := make([]float64, k)
			for i := 0; i < m; i++ {
				if y[i] == 0 {
					continue
				}
				for j, v := range a.Row(i) {
					mtv[j] += y[i] * v
				}
			}
			wantBitIdentical(t, fmt.Sprintf("MatTVec %s %v", mode.name, sh), FromData(1, k, mtv), FromData(1, k, MatTVec(nil, a, y)))
		}
	}
}
