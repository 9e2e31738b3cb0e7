//go:build amd64 && !hdmm_noasm

package mat

// The AVX2 kernels are implementation details, not a second arithmetic:
// axpyAVX2 and logAVX2 are elementwise, and axpyRowAVX2, dotBandAVX2 and
// contractTNTileAVX2 give each lane its own output element, so enabling or
// disabling the assembly never changes a single bit of output — only
// throughput. axpyAVX2 serves Gram, MatTVec and Axpy; axpyRowAVX2 serves
// Mul and MulTN; dotBandAVX2 serves MulNT and ContractNT;
// contractTNTileAVX2 serves ContractTN; and logAVX2 serves LogVec, which
// the Laplace noise sampler runs. Build with -tags hdmm_noasm to force
// pure Go.

// axpyAVX2 computes dst[j] += alpha*src[j] for j in [0, len(dst)).
// len(src) must be at least len(dst).
//
//go:noescape
func axpyAVX2(alpha float64, dst, src []float64)

// axpyRowAVX2 computes one output row of the Mul/MulTN kernel over
// strips × 16 columns: c[j] += Σ_t a[t]·b[off[t]+j] for j < 16*strips,
// each element one serial chain over t ascending. len(off) must be at
// least len(a), and every element the row touches must lie inside the
// slices.
//
//go:noescape
func axpyRowAVX2(c []float64, a []float64, off []int, b []float64, strips int)

// dotBandAVX2 computes one four-row band of the MulNT and ContractNT
// kernels (dotBands) over strips × 8 columns:
// out[r*ld+j] = Σ_{q<k} a[ar+q]·bt[q*ld+j] for r < 4 and j < 8*strips (ar
// is a0..a3), where bt holds the other operand transposed; each element is
// one serial chain over q ascending from zero. Rows may repeat. Every
// element the band touches must lie inside the slices.
//
//go:noescape
func dotBandAVX2(out []float64, a []float64, a0, a1, a2, a3 int, bt []float64, ld, k, strips int)

// contractTNTileAVX2 computes one 8×4 tile of ContractTN:
// dst[t*dstride+c] = Σ_{q<k} a[q*astride+t]·b[q*bstride+c] for t < 8 and
// c < 4, each element one serial chain over q ascending. The slices start
// at the tile's origin and must cover every element the tile touches.
//
//go:noescape
func contractTNTileAVX2(dst []float64, dstride int, a []float64, astride int, b []float64, bstride int, k int)

// logAVX2 computes dst[i] = math.Log(x[i]) with the instruction sequence
// of Go's amd64 math.Log, four lanes at a time, over groups of four up to
// len(x) &^ 3. It stops before the first group holding a value that is
// not positive, normal and finite, and returns the number of elements
// written. len(dst) must be at least that; dst may alias x.
//
//go:noescape
func logAVX2(dst, x []float64) int

// cpuidAsm executes CPUID with the given leaf and subleaf.
func cpuidAsm(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

// haveAVX2 is fixed at process start: the dispatch must not change
// implementations mid-run (it would not change results, but keeping
// it immutable makes the perf profile stable and the data race trivially
// absent).
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU supports AVX2 and the OS saves
// ymm state across context switches (OSXSAVE + XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // SSE and AVX state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
