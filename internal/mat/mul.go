package mat

// Mul computes C = A·B. If dst is non-nil it must have the right shape and is
// reused; otherwise a new matrix is allocated. Each output element is one
// serial chain over k ascending from zero that skips every zero A[i,k], so a
// zero in A contributes nothing even where B holds Inf or NaN. The kernel
// (axpyRows) vectorizes across output columns only, so it computes those
// bits on any hardware and at any worker count. Above the size threshold the rows are sharded across cores.
func Mul(dst, a, b *Dense) *Dense {
	if a.c != b.r {
		panic("mat: Mul dimension mismatch")
	}
	dst = prepDst(dst, a.r, b.c)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shardRows(w, a.r, a.c*b.c, func(lo, hi int) { mulShard(dst, a, b, lo, hi) })
		return dst
	}
	mulShard(dst, a, b, 0, a.r)
	return dst
}

// MulTN computes C = Aᵀ·B with the same per-element arithmetic as Mul
// (one serial chain over k per element, zero A[k,i] skipped), sharding
// output rows across cores above the size threshold.
func MulTN(dst, a, b *Dense) *Dense {
	if a.r != b.r {
		panic("mat: MulTN dimension mismatch")
	}
	dst = prepDst(dst, a.c, b.c)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shardRows(w, a.c, a.r*b.c, func(lo, hi int) { mulTNShard(dst, a, b, lo, hi) })
		return dst
	}
	mulTNShard(dst, a, b, 0, a.c)
	return dst
}

// MulNT computes C = A·Bᵀ, sharding output rows across cores above the size
// threshold. Each output element is one serial dot product over k ascending
// from zero (mulNTShard).
func MulNT(dst, a, b *Dense) *Dense {
	if a.c != b.c {
		panic("mat: MulNT dimension mismatch")
	}
	// Every output element is assigned, never accumulated, so the
	// destination is not zeroed first.
	dst = prepDstNoZero(dst, a.r, b.r)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.r >= parallelFlops {
		shardRows(w, a.r, a.c*b.r, func(lo, hi int) { mulNTShard(dst, a, b, lo, hi) })
		return dst
	}
	mulNTShard(dst, a, b, 0, a.r)
	return dst
}

// MulOn computes C = A·B, given in nz[i], ascending, the columns where row
// i of A is nonzero. It gives Mul's bits, element by element, without
// Mul's scan for the nonzeros: a caller that multiplies by the same sparse
// A several times finds them once.
func MulOn(dst, a *Dense, nz [][]int, b *Dense) *Dense {
	if a.c != b.r || len(nz) != a.r {
		panic("mat: MulOn dimension mismatch")
	}
	dst = prepDst(dst, a.r, b.c)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shardRows(w, a.r, a.c*b.c, func(lo, hi int) { axpyRowsOn(dst, a.data, a.c, 1, nz, b, lo, hi, simdCols(b.c)) })
		return dst
	}
	axpyRowsOn(dst, a.data, a.c, 1, nz, b, 0, a.r, simdCols(b.c))
	return dst
}

// MulTNOn computes C = Aᵀ·B, given in nz[i], ascending, the rows where
// column i of A is nonzero. It gives MulTN's bits, as MulOn gives Mul's.
func MulTNOn(dst, a *Dense, nz [][]int, b *Dense) *Dense {
	if a.r != b.r || len(nz) != a.c {
		panic("mat: MulTNOn dimension mismatch")
	}
	dst = prepDst(dst, a.c, b.c)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shardRows(w, a.c, a.r*b.c, func(lo, hi int) { axpyRowsOn(dst, a.data, 1, a.c, nz, b, lo, hi, simdCols(b.c)) })
		return dst
	}
	axpyRowsOn(dst, a.data, 1, a.c, nz, b, 0, a.c, simdCols(b.c))
	return dst
}

// mulShard computes rows [lo, hi) of dst += A·B.
func mulShard(dst, a, b *Dense, lo, hi int) {
	axpyRows(dst, a.data, a.c, 1, b, lo, hi, simdCols(b.c))
}

// mulTNShard computes rows [lo, hi) of dst += Aᵀ·B.
func mulTNShard(dst, a, b *Dense, lo, hi int) {
	axpyRows(dst, a.data, 1, a.c, b, lo, hi, simdCols(b.c))
}

// simdCols is how many of n output columns axpyRowAVX2 takes: every whole
// strip of sixteen where the hardware has AVX2, none elsewhere.
func simdCols(n int) int {
	if haveAVX2 {
		return n &^ 15
	}
	return 0
}

// axpyRows computes rows [lo, hi) of dst += Â·B, where Â(i, k) =
// ad[i*ars+k*aks] (Mul reads A row-major, MulTN column-major) and every
// output element is one chain over k ascending that skips zero Â(i, k).
// Per k-panel and row it gathers the row's nonzero multipliers and their B
// row offsets, so the skip costs one pass over the row, never a branch in
// the inner loop — and skips real work: OPT₀'s Θ sits on its box's lower
// bound, at exactly zero, in most entries. The assembly then sweeps the
// first n16 output columns (a multiple of sixteen; see simdCols), each
// strip's accumulators held in registers across the row's multipliers,
// and Go tiles take the remaining columns. Both give each element the
// same chain, so they give the same bits. The k-panels of kBlock keep a
// panel of B in L2 while the shard's rows stream over it; the
// accumulators go through dst between panels, which is exact.
func axpyRows(dst *Dense, ad []float64, ars, aks int, b *Dense, lo, hi, n16 int) {
	kk, n := b.r, b.c
	var vals [kBlock]float64
	var offs [kBlock]int
	for k0 := 0; k0 < kk; k0 += kBlock {
		k1 := min(k0+kBlock, kk)
		for i := lo; i < hi; i++ {
			cnt := gatherNonzero(&vals, &offs, ad[i*ars+k0*aks:], aks, k1-k0, k0*n, n)
			if cnt == 0 {
				continue
			}
			crow := dst.data[i*n : i*n+n]
			if n16 > 0 {
				axpyRowAVX2(crow, vals[:cnt], offs[:cnt], b.data, n16/16)
			}
			axpyRowGo(crow, vals[:cnt], offs[:cnt], b.data, n16, n)
		}
	}
}

// axpyRowsOn is axpyRows with each row's nonzero multipliers listed in
// nz[i] instead of found by a scan. It takes them in runs of up to kBlock,
// the accumulators going through dst between runs, which is exact, so each
// element is the same chain over the nonzero k ascending.
func axpyRowsOn(dst *Dense, ad []float64, ars, aks int, nz [][]int, b *Dense, lo, hi, n16 int) {
	n := b.c
	var vals [kBlock]float64
	var offs [kBlock]int
	for i := lo; i < hi; i++ {
		crow := dst.data[i*n : i*n+n]
		for idx := nz[i]; len(idx) > 0; {
			cnt := min(len(idx), kBlock)
			for t, k := range idx[:cnt] {
				vals[t], offs[t] = ad[i*ars+k*aks], k*n
			}
			if n16 > 0 {
				axpyRowAVX2(crow, vals[:cnt], offs[:cnt], b.data, n16/16)
			}
			axpyRowGo(crow, vals[:cnt], offs[:cnt], b.data, n16, n)
			idx = idx[cnt:]
		}
	}
}

// gatherNonzero stores the nonzero values among col[q*stride] for q < k in
// vals, and the B offset off + q*ldb of each in offs, and returns how many
// it stored. The store is unconditional and the count advances by
// comparison, so the loop has no data-dependent branch.
func gatherNonzero(vals *[kBlock]float64, offs *[kBlock]int, col []float64, stride, k, off, ldb int) int {
	cnt := 0
	for q := 0; q < k; q++ {
		v := col[q*stride]
		vals[cnt], offs[cnt] = v, off
		x := 0
		if v != 0 {
			x = 1
		}
		cnt += x
		off += ldb
	}
	return cnt
}

// axpyRowGo computes crow[j] += Σ_t vals[t]·bd[offs[t]+j] for j in
// [jlo, jhi) in tiles of four columns, one serial chain per column.
func axpyRowGo(crow, vals []float64, offs []int, bd []float64, jlo, jhi int) {
	offs = offs[:len(vals)]
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		s0, s1, s2, s3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
		for t, v := range vals {
			f := bd[offs[t]+j : offs[t]+j+4 : offs[t]+j+4]
			s0 += v * f[0]
			s1 += v * f[1]
			s2 += v * f[2]
			s3 += v * f[3]
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
	}
	for ; j < jhi; j++ {
		s := crow[j]
		for t, v := range vals {
			s += v * bd[offs[t]+j]
		}
		crow[j] = s
	}
}

// mulNTShard computes rows [lo, hi) of dst = A·Bᵀ, each element one serial
// dot product over k ascending from zero. Where the hardware has AVX2 and
// the shard has a band's worth of rows, dotBands takes it with A's rows as
// the band rows. Elsewhere ContractNT's Go tiles take the shard, run on
// views of its rows of A and dst.
func mulNTShard(dst, a, b *Dense, lo, hi int) {
	kk, n := a.c, b.r
	if !haveAVX2 || hi-lo < 4 || kk == 0 || n == 0 {
		av := Dense{r: hi - lo, c: kk, data: a.data[lo*kk : hi*kk]}
		dv := Dense{r: hi - lo, c: n, data: dst.data[lo*n : hi*n]}
		contractNTTiles(&dv, &av, b, 0, n)
		return
	}
	dotBands(a, lo, hi, b, func(i, rows int, out []float64, ld int) {
		for r := range rows {
			copy(dst.data[(i+r)*n:(i+r)*n+n], out[r*ld:r*ld+n])
		}
	})
}

// dotBands computes the dot product of each row i in [lo, hi) of x with
// every row of y, four rows of x at a time, and hands each band to emit:
// rows i to i+rows−1 (rows ≤ 4), row i+r's y.r results at out[r*ld:]. It
// transposes y into scratch, so that a run of y's rows is a run of
// memory, and dotBandAVX2 sweeps the bands with one output element per
// lane, each a serial chain over k ascending from zero. A short last band
// repeats its last row, and y's rows are zero-padded to a multiple of
// eight (the padding lanes are computed and dropped). It needs AVX2 and
// x.c == y.c > 0.
func dotBands(x *Dense, lo, hi int, y *Dense, emit func(i, rows int, out []float64, ld int)) {
	kk, n := x.c, y.r
	n8 := (n + 7) &^ 7
	buf := getScratch((kk + 4) * n8)
	defer putScratch(buf)
	yt, out := (*buf)[:kk*n8], (*buf)[kk*n8:]
	transposePadded(yt, n8, y)
	for i := lo; i < hi; i += 4 {
		r1, r2, r3 := min(i+1, hi-1), min(i+2, hi-1), min(i+3, hi-1)
		dotBandAVX2(out, x.data, i*kk, r1*kk, r2*kk, r3*kk, yt, n8, kk, n8/8)
		emit(i, min(4, hi-i), out, n8)
	}
}

// transposePadded writes Bᵀ into bt with row stride ld ≥ b.r, zeroing the
// ld − b.r padding columns of each row.
func transposePadded(bt []float64, ld int, b *Dense) {
	kk, n, bd := b.c, b.r, b.data
	for q := 0; q < kk; q++ {
		row := bt[q*ld : q*ld+ld]
		for j, src := 0, q; j < n; j, src = j+1, src+kk {
			row[j] = bd[src]
		}
		for j := n; j < ld; j++ {
			row[j] = 0
		}
	}
}

// scratchFree recycles dotBands' scratch buffers, so a MulNT called tens
// of thousands of times per selection, or a ContractNT called once per
// Kronecker mode, does not feed the collector. It is a buffered channel
// rather than a sync.Pool because under the race detector a Pool drops a
// quarter of its Puts at random, and the Kronecker applications' zero
// allocation contract is tested under -race too. Sixteen idle buffers
// cover the kernel shards of a few concurrent selections or requests on a
// machine of a few cores; a buffer handed back past that is left to the
// collector, which costs one allocation the next time, never a result.
var scratchFree = make(chan *[]float64, 16)

// getScratch returns a buffer of length n with unspecified contents; hand
// it back with putScratch. An idle buffer too small for n is dropped, so
// the idle buffers grow to the largest size in use.
func getScratch(n int) *[]float64 {
	select {
	case b := <-scratchFree:
		if cap(*b) >= n {
			*b = (*b)[:n]
			return b
		}
	default:
	}
	b := make([]float64, n)
	return &b
}

// putScratch hands b back for reuse, or drops it if enough are idle.
func putScratch(b *[]float64) {
	select {
	case scratchFree <- b:
	default:
	}
}

// ContractNT computes C = A·Bᵀ — the same contraction as MulNT with the
// same element-wise accumulation order (each output element is one serial
// dot product over k ascending, so the two kernels are bit-identical) —
// but streams B in the OUTER loop. This is the right order when A is
// cache-resident and B is not: in the Kronecker mode contraction A is a
// small per-attribute factor (tens of KB) while B is the reshaped
// data-vector intermediate (MBs), so B must be read exactly once while A
// stays hot, not re-streamed once per factor row as an A-row-outer layout
// would.
// Above the size threshold B's rows are sharded across cores; every output
// element is written by exactly one shard.
func ContractNT(dst, a, b *Dense) *Dense {
	if a.c != b.c {
		panic("mat: ContractNT dimension mismatch")
	}
	dst = prepDstNoZero(dst, a.r, b.r)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.r >= parallelFlops {
		shardRows(w, b.r, a.r*a.c, func(lo, hi int) { contractNTShard(dst, a, b, lo, hi) })
		return dst
	}
	contractNTShard(dst, a, b, 0, b.r)
	return dst
}

// contractNTShard computes dst[q, r] for r in [lo, hi). Where the hardware
// has AVX2, A has at least eight rows and the shard at least sixteen rows
// of B, dotBands takes it with B's rows as the band rows and A's rows
// across the lanes; a band of four B rows lands as four contiguous values
// in each row of dst. Elsewhere the Go tiles take it: with fewer than
// eight rows of A most lanes would be padding, and a shard of a few rows
// would not repay transposing A. Either way each element is one serial dot
// product over k ascending from zero, so the choice never changes a bit.
func contractNTShard(dst, a, b *Dense, lo, hi int) {
	if !haveAVX2 || a.r < 8 || hi-lo < 16 || a.c == 0 {
		contractNTTiles(dst, a, b, lo, hi)
		return
	}
	n, ar, dd := b.r, a.r, dst.data
	dotBands(b, lo, hi, a, func(r, rows int, out []float64, ld int) {
		if rows < 4 {
			for j := range rows {
				for q, x := range out[j*ld : j*ld+ar] {
					dd[q*n+r+j] = x
				}
			}
			return
		}
		o0 := out[:ar]
		o1 := out[ld : ld+ar][:len(o0)]
		o2 := out[2*ld : 2*ld+ar][:len(o0)]
		o3 := out[3*ld : 3*ld+ar][:len(o0)]
		for q, x := range o0 {
			d := dd[q*n+r : q*n+r+4]
			d[0], d[1], d[2], d[3] = x, o1[q], o2[q], o3[q]
		}
	})
}

// contractNTTiles computes dst[q, r] for r in [lo, hi) in Go: B-row outer,
// A-row inner, one serial dot product per element (ascending k), written
// column-strided into dst's row-major layout — the transposed write of the
// mode contraction. It works in register tiles whose eight chains are
// independent, so the loop is throughput-bound rather than bound by the
// add latency of one chain. An A of fewer than eight rows — a thin factor
// such as a 3×2 or a 1×115 — runs 1×8 tiles (one row of A against eight
// rows of B, written as eight contiguous values of dst's row). Otherwise,
// and for the last rows of B, it runs 4×2 tiles (four rows of A against
// two rows of B), so each row of B is read once per four rows of A
// instead of once per row. Leftover A rows run in 1×2 tiles and an odd
// last B row in single chains; the arithmetic per element is the same
// either way. The rows are hoisted raw slices resliced to one length, so
// the compiler drops the inner bounds checks.
func contractNTTiles(dst, a, b *Dense, lo, hi int) {
	n, ar, kk := b.r, a.r, a.c
	ad, bd, dd := a.data, b.data, dst.data
	r := lo
	if ar < 8 {
		r = contractNTThin(dst, a, b, lo, hi)
	}
	for ; r+2 <= hi; r += 2 {
		b0 := bd[r*kk : r*kk+kk]
		b1 := bd[(r+1)*kk : (r+1)*kk+kk][:len(b0)]
		q := 0
		for ; q+4 <= ar; q += 4 {
			a0 := ad[q*kk : q*kk+kk][:len(b0)]
			a1 := ad[(q+1)*kk : (q+1)*kk+kk][:len(b0)]
			a2 := ad[(q+2)*kk : (q+2)*kk+kk][:len(b0)]
			a3 := ad[(q+3)*kk : (q+3)*kk+kk][:len(b0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k, x0 := range b0 {
				x1 := b1[k]
				s00 += a0[k] * x0
				s01 += a0[k] * x1
				s10 += a1[k] * x0
				s11 += a1[k] * x1
				s20 += a2[k] * x0
				s21 += a2[k] * x1
				s30 += a3[k] * x0
				s31 += a3[k] * x1
			}
			dd[q*n+r], dd[q*n+r+1] = s00, s01
			dd[(q+1)*n+r], dd[(q+1)*n+r+1] = s10, s11
			dd[(q+2)*n+r], dd[(q+2)*n+r+1] = s20, s21
			dd[(q+3)*n+r], dd[(q+3)*n+r+1] = s30, s31
		}
		for ; q < ar; q++ {
			arow := ad[q*kk : q*kk+kk][:len(b0)]
			var s0, s1 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
			}
			dd[q*n+r], dd[q*n+r+1] = s0, s1
		}
	}
	for ; r < hi; r++ {
		brow := bd[r*kk : r*kk+kk]
		for q := 0; q < ar; q++ {
			arow := ad[q*kk : q*kk+kk]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			dd[q*n+r] = s
		}
	}
}

// contractNTThin runs contractNTTiles' 1×8 tiles over the whole blocks of
// eight rows in [lo, hi) and returns the first row it left.
func contractNTThin(dst, a, b *Dense, lo, hi int) int {
	n, ar, kk := b.r, a.r, a.c
	ad, bd, dd := a.data, b.data, dst.data
	r := lo
	for ; r+8 <= hi; r += 8 {
		b0 := bd[r*kk : r*kk+kk]
		b1 := bd[(r+1)*kk : (r+1)*kk+kk][:len(b0)]
		b2 := bd[(r+2)*kk : (r+2)*kk+kk][:len(b0)]
		b3 := bd[(r+3)*kk : (r+3)*kk+kk][:len(b0)]
		b4 := bd[(r+4)*kk : (r+4)*kk+kk][:len(b0)]
		b5 := bd[(r+5)*kk : (r+5)*kk+kk][:len(b0)]
		b6 := bd[(r+6)*kk : (r+6)*kk+kk][:len(b0)]
		b7 := bd[(r+7)*kk : (r+7)*kk+kk][:len(b0)]
		for q := 0; q < ar; q++ {
			arow := ad[q*kk : q*kk+kk][:len(b0)]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
				s4 += av * b4[k]
				s5 += av * b5[k]
				s6 += av * b6[k]
				s7 += av * b7[k]
			}
			d := dd[q*n+r : q*n+r+8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
	return r
}

// ContractTN computes C = Aᵀ·B, the mirror of ContractNT for the adjoint
// Kronecker sweep: A (k×r) is the large, streamed operand and B (k×n) the
// small, cache-resident one, so C is r×n. Read as a tensor step, it
// contracts A's leading axis against B and rotates the result axis to the
// back. Each output element is one serial sum over k in ascending order,
// starting from zero, with no zero skips — the same bits as the scalar
// dot Σ_k A[k,i]·B[k,j] and, on finite operands, as MulTN. The kernel works
// in register tiles of output elements: a band of a few output rows reads
// a narrow column panel of A, which stays in L1 while the band's tiles
// sweep every column of B, so A as a whole streams through once and every
// output element is written exactly once. Above the size threshold the r
// output rows are sharded across cores; the per-element arithmetic is
// independent of the split. Its SIMD lanes, where the hardware has them,
// are separate output elements, never a split of one element's sum.
func ContractTN(dst, a, b *Dense) *Dense {
	if a.r != b.r {
		panic("mat: ContractTN dimension mismatch")
	}
	dst = prepDstNoZero(dst, a.c, b.c)
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shardRows(w, a.c, a.r*b.c, func(lo, hi int) { contractTNShard(dst, a, b, lo, hi) })
		return dst
	}
	contractTNShard(dst, a, b, 0, a.c)
	return dst
}

// contractTNShard computes rows [lo, hi) of dst = Aᵀ·B: 8×4 AVX2 tiles
// where the hardware has them, the portable 4×2 tiles for the edge strips
// and everywhere without AVX2. Each element is one serial chain over k in
// either tiling (vmulpd then vaddpd, never FMA), so the two give the same
// bits.
func contractTNShard(dst, a, b *Dense, lo, hi int) {
	kk, ra, n := a.r, a.c, b.c
	if !haveAVX2 || kk == 0 {
		contractTNRect(dst, a, b, lo, hi, 0, n)
		return
	}
	n4 := n &^ 3
	i := lo
	for ; i+8 <= hi; i += 8 {
		for j := 0; j < n4; j += 4 {
			contractTNTileAVX2(dst.data[i*n+j:], n, a.data[i:], ra, b.data[j:], n, kk)
		}
	}
	contractTNRect(dst, a, b, lo, i, n4, n)
	contractTNRect(dst, a, b, i, hi, 0, n)
}

// contractTNRect computes dst[i, j] = Σ_k A[k,i]·B[k,j] for i in [ilo, ihi)
// and j in [jlo, jhi) in 4×2 register tiles: per k the tile loads four
// adjacent elements of A's row k and two of B's, and keeps its eight
// accumulation chains independent, so the loop is throughput-bound rather
// than bound by the add latency of one chain. An odd last column runs in
// 4×1 tiles and leftover rows in single chains; the arithmetic per element
// is the same either way.
func contractTNRect(dst, a, b *Dense, ilo, ihi, jlo, jhi int) {
	kk, ra, n := a.r, a.c, b.c
	ad, bd, dd := a.data, b.data, dst.data
	i := ilo
	for ; i+4 <= ihi; i += 4 {
		j := jlo
		for ; j+2 <= jhi; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			ai, bi := i, j
			for k := 0; k < kk; k++ {
				z := ad[ai : ai+4 : ai+4]
				f := bd[bi : bi+2 : bi+2]
				s00 += z[0] * f[0]
				s01 += z[0] * f[1]
				s10 += z[1] * f[0]
				s11 += z[1] * f[1]
				s20 += z[2] * f[0]
				s21 += z[2] * f[1]
				s30 += z[3] * f[0]
				s31 += z[3] * f[1]
				ai += ra
				bi += n
			}
			o := dd[i*n+j : (i+3)*n+j+2]
			o[0], o[1] = s00, s01
			o[n], o[n+1] = s10, s11
			o[2*n], o[2*n+1] = s20, s21
			o[3*n], o[3*n+1] = s30, s31
		}
		if j < jhi {
			var s0, s1, s2, s3 float64
			ai, bi := i, j
			for k := 0; k < kk; k++ {
				z := ad[ai : ai+4 : ai+4]
				f := bd[bi]
				s0 += z[0] * f
				s1 += z[1] * f
				s2 += z[2] * f
				s3 += z[3] * f
				ai += ra
				bi += n
			}
			dd[i*n+j], dd[(i+1)*n+j], dd[(i+2)*n+j], dd[(i+3)*n+j] = s0, s1, s2, s3
		}
	}
	for ; i < ihi; i++ {
		for j := jlo; j < jhi; j++ {
			s := 0.0
			ai, bi := i, j
			for k := 0; k < kk; k++ {
				s += ad[ai] * bd[bi]
				ai += ra
				bi += n
			}
			dd[i*n+j] = s
		}
	}
}

// Gram computes AᵀA, exploiting symmetry (only the upper triangle is
// accumulated, one axpy per nonzero A[k,i] over the row suffix, and then
// mirrored).
func Gram(dst, a *Dense) *Dense {
	dst = prepDst(dst, a.c, a.c)
	n := a.c
	for k := 0; k < a.r; k++ {
		row := a.Row(k)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			axpy(vi, dst.data[i*n+i:i*n+n], row[i:])
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[j*n+i] = dst.data[i*n+j]
		}
	}
	return dst
}

// MatVec computes dst = A·x, each element one serial dot product. dst may
// be nil.
func MatVec(dst []float64, a *Dense, x []float64) []float64 {
	if len(x) != a.c {
		panic("mat: MatVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.r)
	} else if len(dst) != a.r {
		panic("mat: MatVec dst length mismatch")
	}
	for i := 0; i < a.r; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MatTVec computes dst = Aᵀ·y as one axpy per nonzero y[i]. dst may be nil.
func MatTVec(dst []float64, a *Dense, y []float64) []float64 {
	if len(y) != a.r {
		panic("mat: MatTVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.c)
	} else if len(dst) != a.c {
		panic("mat: MatTVec dst length mismatch")
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for i := 0; i < a.r; i++ {
		if yi := y[i]; yi != 0 {
			axpy(yi, dst, a.Row(i))
		}
	}
	return dst
}

func prepDst(dst *Dense, r, c int) *Dense {
	if dst == nil {
		return NewDense(r, c) // fresh allocations are already zero
	}
	dst = prepDstNoZero(dst, r, c)
	dst.Zero()
	return dst
}

// prepDstNoZero shape-checks (or allocates) the destination without zeroing
// it; for kernels that assign every output element exactly once.
func prepDstNoZero(dst *Dense, r, c int) *Dense {
	if dst == nil {
		return NewDense(r, c)
	}
	if dst.r != r || dst.c != c {
		panic("mat: destination has wrong shape")
	}
	return dst
}
