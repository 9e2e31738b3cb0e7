//go:build !amd64 || hdmm_noasm

package mat

// Non-amd64 builds (and -tags hdmm_noasm) run every kernel on its Go loops
// and tiles. Same bits, portable throughput.

const haveAVX2 = false

func axpyAVX2(alpha float64, dst, src []float64) {
	panic("mat: axpyAVX2 called without AVX2 support")
}

func axpyRowAVX2(c []float64, a []float64, off []int, b []float64, strips int) {
	panic("mat: axpyRowAVX2 called without AVX2 support")
}

func dotBandAVX2(out []float64, a []float64, a0, a1, a2, a3 int, bt []float64, ld, k, strips int) {
	panic("mat: dotBandAVX2 called without AVX2 support")
}

func contractTNTileAVX2(dst []float64, dstride int, a []float64, astride int, b []float64, bstride int, k int) {
	panic("mat: contractTNTileAVX2 called without AVX2 support")
}

func logAVX2(dst, x []float64) int {
	panic("mat: logAVX2 called without AVX2 support")
}
