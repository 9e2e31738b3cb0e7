package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refContractTN is the scalar definition of ContractTN: one serial chain
// per output element, k ascending from zero, no skips.
func refContractTN(a, b *Dense) *Dense {
	out := NewDense(a.c, b.c)
	for i := 0; i < a.c; i++ {
		for j := 0; j < b.c; j++ {
			s := 0.0
			for k := 0; k < a.r; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refContractNT is the scalar definition of ContractNT: C = A·Bᵀ with one
// serial chain per output element, k ascending from zero, no skips.
func refContractNT(a, b *Dense) *Dense {
	out := NewDense(a.r, b.r)
	for q := 0; q < a.r; q++ {
		for r := 0; r < b.r; r++ {
			s := 0.0
			for k := 0; k < a.c; k++ {
				s += a.At(q, k) * b.At(r, k)
			}
			out.Set(q, r, s)
		}
	}
	return out
}

// TestContractNTMatchesScalarReference pins ContractNT byte-for-byte to its
// scalar definition at Workers 1/2/4/8, and its Go tiles run alone (what
// every non-AVX2 build runs). Shapes cover every edge of the 4×2 Go tiles
// (A rows below, at and past multiples of four; odd and even B row counts,
// so shards start tiles at odd rows), the 1×8 tiles of thin factors (the
// census 1×115, 2×2 and 3×2 factors against 1, 7, 8 and 9 rows of B and
// 4k+3 rows past parallelFlops, so shards start tiles mid-block and end in
// 4×2 and single-chain tails), both sides of the AVX2 band's gate (A rows
// 7/8/9 against shards of 15/16/17 B rows), B row counts that leave a
// short last band, k = 1, a 2080-row AllRange factor against one and 64
// rows, empty contractions, and shapes past parallelFlops. ContractNT does
// not skip zeros, so a zero in A against an Inf in B must give NaN.
func TestContractNTMatchesScalarReference(t *testing.T) {
	shapes := [][3]int{ // ar, n, k: A is ar×k, B is n×k
		{0, 5, 3}, {3, 0, 2}, {3, 5, 0},
		{1, 1, 1}, {3, 2, 1}, {4, 2, 3}, {5, 3, 2}, {8, 7, 5},
		{9, 4, 7}, {13, 9, 6}, {2, 33, 11},
		{7, 15, 9}, {7, 16, 9}, {7, 17, 9},
		{8, 15, 9}, {8, 16, 9}, {8, 17, 9},
		{9, 15, 9}, {9, 16, 9}, {9, 17, 9},
		{12, 18, 6}, {16, 19, 33}, {11, 23, 4}, {8, 20, 1}, {24, 37, 1},
		{2080, 1, 64}, {2080, 64, 64},
		{65, 64, 64}, {115, 41, 122}, {2, 90001, 3}, {17, 4099, 18},
		{1, 1, 115}, {1, 7, 115}, {1, 8, 115}, {1, 9, 115}, {1, 4*2500 + 3, 115},
		{2, 1, 2}, {2, 7, 2}, {2, 8, 2}, {2, 9, 2}, {2, 4*50000 + 3, 2},
		{3, 1, 2}, {3, 7, 2}, {3, 8, 2}, {3, 9, 2}, {3, 4*50000 + 3, 2},
	}
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	for _, fill := range mulFills {
		for _, sh := range shapes {
			ar, n, kk := sh[0], sh[1], sh[2]
			rng := rand.New(rand.NewPCG(uint64(ar*1_000_000+n*100+kk), 0x4e))
			a := fillDense(rng, fill.a, ar, kk)
			b := fillDense(rng, fill.b, n, kk)
			want := refContractNT(a, b)
			got := nanDense(ar, n)
			contractNTTiles(got, a, b, 0, n)
			wantSameBitsOrNaN(t, fmt.Sprintf("%s %v Go tiles", fill.name, sh), want, got)
			for _, workers := range []int{1, 2, 4, 8} {
				SetWorkers(workers)
				got := nanDense(ar, n)
				ContractNT(got, a, b)
				wantSameBitsOrNaN(t, fmt.Sprintf("%s %v workers=%d", fill.name, sh, workers), want, got)
			}
			SetWorkers(1)
		}
	}
}

// TestContractTNMatchesScalarReference pins ContractTN byte-for-byte to
// its scalar definition at Workers 1/4/8, so it is both the oracle test
// and the shard-invariance test of the kernel. On AVX2 hardware ContractTN runs the 8×4
// assembly tiles with the Go tiles on the edges, so the Go tiles are
// also run alone over every shape: that is all non-AVX2 builds run.
// Shapes cover every tile edge of both tilings (rows and columns below,
// at and just past the tile widths), an empty contraction, and shapes
// past parallelFlops so workers > 1 shards.
func TestContractTNMatchesScalarReference(t *testing.T) {
	shapes := [][3]int{ // k, r, n: A is k×r, B is k×n
		{0, 5, 3}, {3, 0, 2}, {3, 5, 0},
		{1, 1, 1}, {2, 3, 1}, {3, 4, 2}, {3, 9, 2}, {5, 7, 3},
		{7, 8, 4}, {4, 17, 5}, {9, 16, 8}, {6, 23, 9}, {1, 33, 11},
		{64, 80, 65}, {122, 40, 115}, {3, 90000, 2}, {18, 4099, 17},
	}
	prevW := SetWorkers(1)
	defer SetWorkers(prevW)
	for _, mode := range fillModes {
		for _, sh := range shapes {
			kk, r, n := sh[0], sh[1], sh[2]
			rng := rand.New(rand.NewPCG(uint64(kk*1_000_000+r*100+n), 0xc7))
			a := fillDense(rng, mode.fill, kk, r)
			b := fillDense(rng, mode.fill, kk, n)
			want := refContractTN(a, b)
			// On finite operands MulTN's zero skips add nothing, so it
			// computes the same bits.
			wantBitIdentical(t, mode.name+"/MulTN", want, MulTN(nil, a, b))
			got := nanDense(r, n)
			contractTNRect(got, a, b, 0, r, 0, n)
			wantSameBits(t, fmt.Sprintf("%s %v Go tiles", mode.name, sh), want, got)
			for _, workers := range []int{1, 4, 8} {
				SetWorkers(workers)
				got := nanDense(r, n)
				ContractTN(got, a, b)
				wantSameBits(t, fmt.Sprintf("%s %v workers=%d", mode.name, sh, workers), want, got)
			}
			SetWorkers(1)
		}
	}
}

// nanDense returns an r×n matrix of NaNs, so a kernel that leaves an
// element unwritten fails the comparison.
func nanDense(r, n int) *Dense {
	d := NewDense(r, n)
	for i := range d.data {
		d.data[i] = math.NaN()
	}
	return d
}

func wantSameBits(t *testing.T, what string, want, got *Dense) {
	t.Helper()
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %g, scalar reference %g", what, i, got.data[i], want.data[i])
		}
	}
}
