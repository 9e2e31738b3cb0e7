package kron

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

// refKmatvec is the scalar implementation of Algorithm 1, kept as the
// differential-testing reference for the GEMM-backed kernels: they must
// reproduce it byte-for-byte — same serial accumulation order within
// every output element — at every worker count. The forward branch is the
// pre-GEMM kernel verbatim (modes d-1 → 0, each result axis rotated to
// the front). The transpose branch is its exact adjoint: modes 0 → d-1,
// each step contracting the leading axis and rotating the result axis to
// the back, so every step costs what the forward step it mirrors costs.
func refKmatvec(factors []*mat.Dense, x []float64, transpose bool) []float64 {
	n := 1
	for _, f := range factors {
		if transpose {
			n *= f.Rows()
		} else {
			n *= f.Cols()
		}
	}
	if len(x) != n {
		panic("ref: kmatvec input length mismatch")
	}
	cur := x
	size := n
	if transpose {
		for _, f := range factors {
			fr, fc := f.Dims()
			rest := size / fr
			out := make([]float64, rest*fc)
			for r := 0; r < rest; r++ {
				for q := 0; q < fc; q++ {
					s := 0.0
					for k := 0; k < fr; k++ {
						s += f.At(k, q) * cur[k*rest+r]
					}
					out[r*fc+q] = s
				}
			}
			cur = out
			size = rest * fc
		}
		return cur
	}
	for i := len(factors) - 1; i >= 0; i-- {
		f := factors[i]
		fr, fc := f.Dims()
		rows := size / fc
		out := make([]float64, rows*fr)
		for r := 0; r < rows; r++ {
			zrow := cur[r*fc : r*fc+fc]
			for q := 0; q < fr; q++ {
				arow := f.Row(q)
				s := 0.0
				for k, v := range arow {
					s += v * zrow[k]
				}
				out[q*rows+r] = s
			}
		}
		cur = out
		size = rows * fr
	}
	return cur
}

// refStackMatVec / refStackMatTVec reproduce the pre-rewrite Stack
// semantics on top of the scalar kernel: disjoint block ranges, weighted,
// transpose reduced serially in block order.
func refStackMatVec(s *Stack, x []float64) []float64 {
	r, _ := s.Dims()
	dst := make([]float64, r)
	off := 0
	for i, b := range s.Blocks {
		br, _ := b.Dims()
		var part []float64
		if p, ok := b.(*Product); ok {
			part = refKmatvec(p.Factors, x, false)
		} else {
			part = make([]float64, br)
			b.MatVec(part, x, NewWorkspace())
		}
		w := s.weight(i)
		for j, v := range part {
			if w != 1 {
				v *= w
			}
			dst[off+j] = v
		}
		off += br
	}
	return dst
}

func refStackMatTVec(s *Stack, y []float64) []float64 {
	_, c := s.Dims()
	dst := make([]float64, c)
	off := 0
	for i, b := range s.Blocks {
		br, _ := b.Dims()
		var part []float64
		if p, ok := b.(*Product); ok {
			part = refKmatvec(p.Factors, y[off:off+br], true)
		} else {
			part = make([]float64, c)
			b.MatTVec(part, y[off:off+br], NewWorkspace())
		}
		w := s.weight(i)
		for j, v := range part {
			dst[j] += w * v
		}
		off += br
	}
	return dst
}

func bitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), reference %v (bits %x)",
				label, i, got[i], got[i], want[i], want[i])
		}
	}
}

// randFactors draws a mix of shapes that exercise every step pattern:
// tall, wide, single-row (Total-like), single-column, and square factors,
// with signed entries so sign-sensitive accumulation differences surface.
func randFactors(rng *rand.Rand, d int) []*mat.Dense {
	fs := make([]*mat.Dense, d)
	for i := range fs {
		fs[i] = randMat(rng, 1+rng.IntN(7), 1+rng.IntN(7))
	}
	return fs
}

// TestGEMMKernelsMatchScalarReference is the differential gate of the GEMM
// rewrite: MatVec/MatTVec must be
// byte-identical to the retired scalar kernel at every tested worker count.
func TestGEMMKernelsMatchScalarReference(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		prev := SetWorkers(workers)
		t.Cleanup(func() { SetWorkers(prev) })

		rng := rand.New(rand.NewPCG(11, uint64(workers)))
		ws := NewWorkspace()
		for trial := 0; trial < 40; trial++ {
			d := 1 + rng.IntN(4)
			p := NewProduct(randFactors(rng, d)...)
			rows, cols := p.Dims()

			x := randVec(rng, cols)
			want := refKmatvec(p.Factors, x, false)
			got := make([]float64, rows)
			p.MatVec(got, x, ws)
			bitsEqual(t, "MatVec", got, want)

			y := randVec(rng, rows)
			wantT := refKmatvec(p.Factors, y, true)
			gotT := make([]float64, cols)
			p.MatTVec(gotT, y, ws)
			bitsEqual(t, "MatTVec", gotT, wantT)
		}
	}
}

// TestStackMatchesScalarReference runs the same differential gate over
// stacked operators, including weighted blocks and column counts above the
// stack's parallel fan-out threshold.
func TestStackMatchesScalarReference(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		prev := SetWorkers(workers)
		t.Cleanup(func() { SetWorkers(prev) })

		rng := rand.New(rand.NewPCG(29, uint64(workers)))
		ws := NewWorkspace()
		for trial := 0; trial < 10; trial++ {
			// Shared column count large enough (> stackParallelCols for
			// the last trials) to cross the concurrent-block threshold.
			c1, c2 := 1+rng.IntN(6), 16*(1+rng.IntN(6))
			if trial >= 7 {
				c2 = 1 << 10
				c1 = 8
			}
			nblocks := 2 + rng.IntN(3)
			blocks := make([]Linear, nblocks)
			weights := make([]float64, nblocks)
			for i := range blocks {
				r1, r2 := 1+rng.IntN(4), 1+rng.IntN(40)
				blocks[i] = NewProduct(randMat(rng, r1, c1), randMat(rng, r2, c2))
				weights[i] = 0.25 + rng.Float64()
			}
			s := NewStack(blocks, weights)
			rows, cols := s.Dims()

			x := randVec(rng, cols)
			got := make([]float64, rows)
			s.MatVec(got, x, ws)
			bitsEqual(t, "Stack.MatVec", got, refStackMatVec(s, x))

			y := randVec(rng, rows)
			gotT := make([]float64, cols)
			s.MatTVec(gotT, y, ws)
			bitsEqual(t, "Stack.MatTVec", gotT, refStackMatTVec(s, y))
		}
	}
}

// heterogeneousShapes are factor (rows, cols) lists for the adjoint sweep:
// expanding (rows > cols) and shrinking factors, mixed within one product,
// d up to 5, size-1 factors at either end and in the middle, and a scaled
// CPH strategy block whose widest step crosses the kernels' sharding
// threshold, so Workers > 1 runs the sharded path.
var heterogeneousShapes = [][][2]int{
	{{1, 1}},
	{{1, 6}},
	{{6, 1}},
	{{2, 3}, {4, 7}, {1, 5}, {6, 9}},
	{{9, 2}, {1, 1}, {3, 8}},
	{{1, 1}, {5, 3}, {2, 6}, {1, 4}, {7, 7}},
	{{8, 3}, {2, 9}, {5, 5}, {3, 1}, {1, 4}},
	{{3, 2}, {3, 2}, {9, 8}, {5, 4}, {13, 11}},
	{{3, 2}, {3, 2}, {17, 16}, {9, 8}, {31, 29}},
}

// TestAdjointSweepHeterogeneousShapes extends the scalar-reference gate
// to heterogeneous factor shapes (the random trials above draw every
// factor from the same small range), forward and transposed, Products
// and Stacks, at Workers 1/4/8.
func TestAdjointSweepHeterogeneousShapes(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		prev := SetWorkers(workers)
		t.Cleanup(func() { SetWorkers(prev) })

		rng := rand.New(rand.NewPCG(47, uint64(workers)))
		ws := NewWorkspace()
		products := make([]*Product, 0, len(heterogeneousShapes)+20)
		for _, shape := range heterogeneousShapes {
			fs := make([]*mat.Dense, len(shape))
			for i, rc := range shape {
				fs[i] = randMat(rng, rc[0], rc[1])
			}
			products = append(products, NewProduct(fs...))
		}
		for trial := 0; trial < 20; trial++ {
			products = append(products, NewProduct(randFactors(rng, 1+rng.IntN(5))...))
		}
		for pi, p := range products {
			rows, cols := p.Dims()
			x := randVec(rng, cols)
			got := make([]float64, rows)
			p.MatVec(got, x, ws)
			bitsEqual(t, "MatVec", got, refKmatvec(p.Factors, x, false))

			y := randVec(rng, rows)
			gotT := make([]float64, cols)
			p.MatTVec(gotT, y, ws)
			bitsEqual(t, "MatTVec", gotT, refKmatvec(p.Factors, y, true))

			// Two blocks sharing the column space: the product and a
			// reshuffled one with the same column dims.
			other := make([]*mat.Dense, len(p.Factors))
			for i, f := range p.Factors {
				other[i] = randMat(rng, 1+rng.IntN(4), f.Cols())
			}
			s := NewStack([]Linear{p, NewProduct(other...)}, []float64{0.5 + float64(pi), 1.25})
			srows, _ := s.Dims()
			sy := randVec(rng, srows)
			sgot := make([]float64, cols)
			s.MatTVec(sgot, sy, ws)
			bitsEqual(t, "Stack.MatTVec", sgot, refStackMatTVec(s, sy))
		}
	}
}

// TestAdjointSweepDeterministicAcrossWorkers: the transposed sweep must
// give the same bits at Workers 1/4/8, and those bits are the scalar
// reference's.
func TestAdjointSweepDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	shape := heterogeneousShapes[len(heterogeneousShapes)-1]
	fs := make([]*mat.Dense, len(shape))
	for i, rc := range shape {
		fs[i] = randMat(rng, rc[0], rc[1])
	}
	p := NewProduct(fs...)
	other := make([]*mat.Dense, len(fs))
	for i, f := range fs {
		other[i] = randMat(rng, 1+rng.IntN(4), f.Cols())
	}
	// Above stackParallelCols columns, so Workers > 1 also fans the
	// stack's blocks out.
	s := NewStack([]Linear{p, NewProduct(other...)}, []float64{0.75, 1.5})
	rows, cols := p.Dims()
	y := randVec(rng, rows)
	want := refKmatvec(p.Factors, y, true)
	srows, _ := s.Dims()
	sy := randVec(rng, srows)
	var sWant []float64
	for _, workers := range []int{1, 4, 8} {
		prev := SetWorkers(workers)
		got := make([]float64, cols)
		ws := NewWorkspace()
		p.MatTVec(got, y, ws)
		bitsEqual(t, "MatTVec", got, want)
		sGot := make([]float64, cols)
		s.MatTVec(sGot, sy, ws)
		if sWant == nil {
			sWant = sGot
		}
		bitsEqual(t, "Stack.MatTVec", sGot, sWant)
		SetWorkers(prev)
	}
}
