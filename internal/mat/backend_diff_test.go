package mat

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// This file is the fast backend's differential gate against the scalar
// reference oracle:
//
//   - elementwise (axpy-shaped) kernels must be BIT-identical to the
//     reference backend — they accumulate in the same order;
//   - dot-shaped kernels may differ only within a tight accumulation
//     bound (the lane split reorders float additions, nothing else);
//   - the AVX2 assembly must be bit-identical to the portable Go
//     definition of the fast arithmetic, shape by shape;
//   - fast results must be run-to-run and cross-Workers bit-identical.
//
// Shapes are adversarial on purpose: empty operands, single rows and
// columns (every dot shorter than the 8-lane width runs entirely in the
// serial tail), lengths straddling multiples of dotLanes, and zero-heavy
// operands that exercise the av == 0 / yi == 0 skip paths.

// pinBackend sets the process-wide kernel backend for one test and
// restores the previous setting on cleanup.
func pinBackend(t *testing.T, b Backend) {
	t.Helper()
	prev := SetKernelBackend(b)
	t.Cleanup(func() { SetKernelBackend(prev) })
}

// diffShapes is the adversarial (m, k, n) sweep: m×k times k×n shaped
// operands. k is the contraction length, so it straddles multiples of
// dotLanes; the 80³ shape crosses parallelFlops when workers > 1.
var diffShapes = [][3]int{
	{0, 5, 3}, {3, 0, 2}, {3, 5, 0},
	{1, 1, 1}, {1, 7, 1}, {7, 1, 7},
	{1, 8, 5}, {3, 9, 4}, {5, 15, 5},
	{2, 16, 3}, {4, 17, 2}, {3, 64, 4},
	{2, 65, 3}, {6, 100, 7}, {80, 80, 80},
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

// dotReorderBound bounds |fast − reference| for one contraction: both
// orderings of a length-n sum carry rounding error ≤ n·eps·Σ|terms|, so
// their difference is within twice that (with a small constant slack).
func dotReorderBound(a, b []float64) float64 {
	terms := 0.0
	for i, v := range a {
		terms += math.Abs(v * b[i])
	}
	n := float64(len(a) + dotLanes)
	return 4 * n * 0x1p-52 * terms
}

func wantBitIdentical(t *testing.T, op string, ref, fast *Dense) {
	t.Helper()
	rd, fd := ref.Data(), fast.Data()
	for i := range rd {
		if math.Float64bits(rd[i]) != math.Float64bits(fd[i]) {
			t.Fatalf("%s: element %d differs in bits: reference %g, fast %g", op, i, rd[i], fd[i])
		}
	}
}

// TestFastMatchesReferenceDifferential compares every dispatched kernel
// under the fast backend against the reference oracle across the
// adversarial shape/fill sweep, serial path (the parallel path is pinned
// bit-identical to the serial one by TestFastDeterministicAcrossWorkers).
func TestFastMatchesReferenceDifferential(t *testing.T) {
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	for _, mode := range fillModes {
		for _, sh := range diffShapes {
			m, k, n := sh[0], sh[1], sh[2]
			rng := rand.New(rand.NewPCG(uint64(m*1000+k*10+n), 0xd1ff))
			amk := fillDense(rng, mode.fill, m, k) // Mul A, Gram, MatVec, MatTVec
			bkn := fillDense(rng, mode.fill, k, n) // Mul B
			akm := fillDense(rng, mode.fill, k, m) // MulTN A
			bnk := fillDense(rng, mode.fill, n, k) // MulNT / ContractNT B
			x := make([]float64, k)
			y := make([]float64, m)
			mode.fill(rng, x, k)
			mode.fill(rng, y, m)

			type matOp struct {
				name  string
				exact bool // bit-identical vs ULP-bounded
				run   func() *Dense
				// bound returns the reorder bound for output element
				// (i, j); nil for exact ops.
				bound func(i, j int) float64
			}
			ops := []matOp{
				{"Mul", true, func() *Dense { return Mul(nil, amk, bkn) }, nil},
				{"MulTN", true, func() *Dense { return MulTN(nil, akm, bkn) }, nil},
				{"Gram", true, func() *Dense { return Gram(nil, amk) }, nil},
				{"MulNT", false, func() *Dense { return MulNT(nil, amk, bnk) },
					func(i, j int) float64 { return dotReorderBound(amk.Row(i), bnk.Row(j)) }},
				{"ContractNT", false, func() *Dense { return ContractNT(nil, amk, bnk) },
					func(i, j int) float64 { return dotReorderBound(amk.Row(i), bnk.Row(j)) }},
				{"ContractTN", true, func() *Dense { return ContractTN(nil, akm, bkn) }, nil},
				{"MatVec", false, func() *Dense { return FromData(m, 1, MatVec(nil, amk, x)) },
					func(i, _ int) float64 { return dotReorderBound(amk.Row(i), x) }},
				{"MatTVec", true, func() *Dense { return FromData(1, k, MatTVec(nil, amk, y)) }, nil},
			}
			for _, op := range ops {
				pinBackend(t, BackendReference)
				ref := op.run()
				SetKernelBackend(BackendFast)
				fast := op.run()
				SetKernelBackend(BackendReference)
				if op.exact {
					wantBitIdentical(t, mode.name+"/"+op.name, ref, fast)
					continue
				}
				rr, rc := ref.Dims()
				for i := 0; i < rr; i++ {
					for j := 0; j < rc; j++ {
						d := math.Abs(ref.At(i, j) - fast.At(i, j))
						if d > op.bound(i, j) {
							t.Fatalf("%s/%s (%d×%d×%d): [%d,%d] reference %g fast %g, diff %g exceeds reorder bound %g",
								mode.name, op.name, m, k, n, i, j, ref.At(i, j), fast.At(i, j), d, op.bound(i, j))
						}
					}
				}
			}

			// Vector kernels: Dot/SqSum within the reorder bound, Norm2
			// via SqSum, Axpy bit-identical.
			pinBackend(t, BackendReference)
			refDot, refSq := Dot(x, x), SqSum(x)
			ay := make([]float64, k)
			copy(ay, x)
			Axpy(1.75, x, ay)
			SetKernelBackend(BackendFast)
			fastDot, fastSq := Dot(x, x), SqSum(x)
			fy := make([]float64, k)
			copy(fy, x)
			Axpy(1.75, x, fy)
			SetKernelBackend(BackendReference)
			if d := math.Abs(refDot - fastDot); d > dotReorderBound(x, x) {
				t.Fatalf("%s Dot k=%d: reference %g fast %g, diff %g", mode.name, k, refDot, fastDot, d)
			}
			if d := math.Abs(refSq - fastSq); d > dotReorderBound(x, x) {
				t.Fatalf("%s SqSum k=%d: reference %g fast %g, diff %g", mode.name, k, refSq, fastSq, d)
			}
			for i := range ay {
				if math.Float64bits(ay[i]) != math.Float64bits(fy[i]) {
					t.Fatalf("%s Axpy k=%d: element %d differs in bits: %g vs %g", mode.name, k, i, ay[i], fy[i])
				}
			}
		}
	}
}

// TestFastSkipsMatchReference pins the av == 0 skip contract with
// non-finite values: a zero multiplier must SKIP its row in both
// backends (0·Inf would otherwise mint NaN), and a non-zero multiplier
// against an Inf row must propagate the same non-finites.
func TestFastSkipsMatchReference(t *testing.T) {
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	a := FromRows([][]float64{{0, 2}}) // a[0,0] == 0 → B row 0 must be skipped
	b := FromRows([][]float64{{math.Inf(1), math.NaN()}, {3, 4}})
	pinBackend(t, BackendReference)
	ref := Mul(nil, a, b)
	SetKernelBackend(BackendFast)
	fast := Mul(nil, a, b)
	SetKernelBackend(BackendReference)
	wantBitIdentical(t, "Mul/zero-skip", ref, fast)
	if v := fast.At(0, 0); v != 6 {
		t.Fatalf("zero multiplier did not skip the Inf row: got %g, want 6", v)
	}
	// Non-zero multiplier: Inf/NaN must flow through identically.
	a2 := FromRows([][]float64{{1, 2}})
	pinBackend(t, BackendReference)
	ref2 := Mul(nil, a2, b)
	SetKernelBackend(BackendFast)
	fast2 := Mul(nil, a2, b)
	SetKernelBackend(BackendReference)
	if !math.IsInf(ref2.At(0, 0), 1) || !math.IsInf(fast2.At(0, 0), 1) {
		t.Fatalf("Inf did not propagate: reference %g, fast %g", ref2.At(0, 0), fast2.At(0, 0))
	}
	if !math.IsNaN(ref2.At(0, 1)) || !math.IsNaN(fast2.At(0, 1)) {
		t.Fatalf("NaN did not propagate: reference %g, fast %g", ref2.At(0, 1), fast2.At(0, 1))
	}
}

// TestFastDotAsmBitIdentical pins the cross-implementation contract: on
// hardware with AVX2 the assembly dot and axpy must produce exactly the
// bits of the portable Go definitions, for every length straddling the
// lane width and for data spanning magnitudes, signed zeros and sign
// cancellation. Elsewhere the test skips — there is only one
// implementation to test.
func TestFastDotAsmBitIdentical(t *testing.T) {
	if !haveAVX2 {
		t.Skipf("no AVX2 on %s (or built with hdmm_noasm); fast backend uses the generic kernels", runtime.GOARCH)
	}
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1024, 1031}
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
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = fill.gen(rng, i)
				b[i] = fill.gen(rng, i+1)
			}
			gd, ad := dotFastGeneric(a, b), dotAVX2(a, b)
			if math.Float64bits(gd) != math.Float64bits(ad) {
				t.Fatalf("%s n=%d: dotAVX2 %x (%g) != dotFastGeneric %x (%g)",
					fill.name, n, math.Float64bits(ad), ad, math.Float64bits(gd), gd)
			}
			gdst := make([]float64, n)
			adst := make([]float64, n)
			copy(gdst, b)
			copy(adst, b)
			for i, v := range a {
				gdst[i] += -1.5 * v
			}
			axpyAVX2(-1.5, adst, a)
			for i := range gdst {
				if math.Float64bits(gdst[i]) != math.Float64bits(adst[i]) {
					t.Fatalf("%s n=%d: axpyAVX2[%d] %g != generic %g", fill.name, n, i, adst[i], gdst[i])
				}
			}
		}
	}
}

// TestFastDeterministicAcrossWorkers pins the fast backend's determinism
// contract: the same operands produce the same bits at every Workers
// count and on every run — sharding splits rows, never a single dot's
// accumulation. The 80³ shape crosses parallelFlops, so workers > 1
// genuinely runs the sharded path (and -race patrols it).
func TestFastDeterministicAcrossWorkers(t *testing.T) {
	pinBackend(t, BackendFast)
	rng := rand.New(rand.NewPCG(0xdead, 0xbeef))
	const n = 80
	a := fillDense(rng, fillModes[1].fill, n, n)
	b := fillDense(rng, fillModes[0].fill, n, n)
	x := make([]float64, n)
	fillModes[0].fill(rng, x, n)

	ops := []struct {
		name string
		run  func() []float64
	}{
		{"Mul", func() []float64 { return Mul(nil, a, b).Data() }},
		{"MulTN", func() []float64 { return MulTN(nil, a, b).Data() }},
		{"MulNT", func() []float64 { return MulNT(nil, a, b).Data() }},
		{"ContractNT", func() []float64 { return ContractNT(nil, a, b).Data() }},
		{"ContractTN", func() []float64 { return ContractTN(nil, a, b).Data() }},
		{"Gram", func() []float64 { return Gram(nil, a).Data() }},
		{"MatVec", func() []float64 { return MatVec(nil, a, x) }},
		{"MatTVec", func() []float64 { return MatTVec(nil, a, x) }},
	}
	baseline := make([][]float64, len(ops))
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	for oi, op := range ops {
		baseline[oi] = op.run()
	}
	for _, workers := range []int{1, 4, 8} {
		SetWorkers(workers)
		for run := 0; run < 3; run++ {
			for oi, op := range ops {
				got := op.run()
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(baseline[oi][i]) {
						t.Fatalf("%s workers=%d run=%d: element %d = %g, workers=1 computed %g — fast backend is not shard-invariant",
							op.name, workers, run, i, got[i], baseline[oi][i])
					}
				}
			}
		}
	}
}

// TestBackendParseString covers the knob surface: round-trips, rejection
// of unknown names, and the swap semantics of SetKernelBackend.
func TestBackendParseString(t *testing.T) {
	for _, b := range []Backend{BackendReference, BackendFast} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	for _, bad := range []string{"", "Fast", "simd", "reference "} {
		if _, err := ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q) accepted", bad)
		}
	}
	pinBackend(t, BackendReference)
	if prev := SetKernelBackend(BackendFast); prev != BackendReference {
		t.Fatalf("SetKernelBackend returned prev %v, want reference", prev)
	}
	if KernelBackend() != BackendFast {
		t.Fatal("backend not switched")
	}
	if prev := SetKernelBackend(BackendReference); prev != BackendFast {
		t.Fatalf("second swap returned %v, want fast", prev)
	}
}
