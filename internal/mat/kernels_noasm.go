//go:build !amd64 || hdmm_noasm

package mat

// Non-amd64 builds (and -tags hdmm_noasm) run the fast backend on the
// pure-Go lane kernels and Mul, MulTN, MulNT and ContractTN on their Go
// tiles. Same bits, portable throughput.

const haveAVX2 = false

func dotAVX2(a, b []float64) float64 {
	panic("mat: dotAVX2 called without AVX2 support")
}

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
