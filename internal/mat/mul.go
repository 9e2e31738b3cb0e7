package mat

// Mul computes C = A·B. If dst is non-nil it must have the right shape and is
// reused; otherwise a new matrix is allocated. The inner loops run in i-k-j
// order so the innermost traversal is contiguous in both B and C. Above the
// size threshold the product is sharded row-wise across MulWorkers() cores
// with a cache-blocked kernel; the result is bit-identical either way.
func Mul(dst, a, b *Dense) *Dense {
	if a.c != b.r {
		panic("mat: Mul dimension mismatch")
	}
	dst = prepDst(dst, a.r, b.c)
	fast := KernelBackend() == BackendFast
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shard := mulShard
		if fast {
			shard = mulShardFast
		}
		shardRows(w, a.r, a.c*b.c, func(lo, hi int) { shard(dst, a, b, lo, hi) })
		return dst
	}
	if fast {
		mulShardFast(dst, a, b, 0, a.r)
		return dst
	}
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

// MulTN computes C = Aᵀ·B, sharding output rows across cores above the size
// threshold.
func MulTN(dst, a, b *Dense) *Dense {
	if a.r != b.r {
		panic("mat: MulTN dimension mismatch")
	}
	dst = prepDst(dst, a.c, b.c)
	fast := KernelBackend() == BackendFast
	if w := MulWorkers(); w > 1 && a.r*a.c*b.c >= parallelFlops {
		shard := mulTNShard
		if fast {
			shard = mulTNShardFast
		}
		shardRows(w, a.c, a.r*b.c, func(lo, hi int) { shard(dst, a, b, lo, hi) })
		return dst
	}
	if fast {
		mulTNShardFast(dst, a, b, 0, a.c)
		return dst
	}
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

// MulNT computes C = A·Bᵀ, sharding output rows across cores above the size
// threshold.
func MulNT(dst, a, b *Dense) *Dense {
	if a.c != b.c {
		panic("mat: MulNT dimension mismatch")
	}
	// Every output element is assigned (crow[j] = s), never accumulated, so
	// the destination is not zeroed first — MulNT is the kernel behind the
	// Kronecker mode contraction, where the extra write pass would be pure
	// memory traffic on the hottest path in the system.
	dst = prepDstNoZero(dst, a.r, b.r)
	fast := KernelBackend() == BackendFast
	if w := MulWorkers(); w > 1 && a.r*a.c*b.r >= parallelFlops {
		shard := mulNTShard
		if fast {
			shard = mulNTShardFast
		}
		shardRows(w, a.r, a.c*b.r, func(lo, hi int) { shard(dst, a, b, lo, hi) })
		return dst
	}
	if fast {
		mulNTShardFast(dst, a, b, 0, a.r)
		return dst
	}
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

// ContractNT computes C = A·Bᵀ — the same contraction as MulNT with the
// same element-wise accumulation order (each output element is one serial
// dot product over k ascending, so the two kernels are bit-identical) —
// but streams B in the OUTER loop. This is the right order when A is
// cache-resident and B is not: in the Kronecker mode contraction A is a
// small per-attribute factor (tens of KB) while B is the reshaped
// data-vector intermediate (MBs), so B must be read exactly once while A
// stays hot, not re-streamed once per factor row as MulNT's layout would.
// Above the size threshold B's rows are sharded across cores; every output
// element is written by exactly one shard.
func ContractNT(dst, a, b *Dense) *Dense {
	if a.c != b.c {
		panic("mat: ContractNT dimension mismatch")
	}
	dst = prepDstNoZero(dst, a.r, b.r)
	shard := contractNTShard
	if KernelBackend() == BackendFast {
		shard = contractNTShardFast
	}
	if w := MulWorkers(); w > 1 && a.r*a.c*b.r >= parallelFlops {
		shardRows(w, b.r, a.r*a.c, func(lo, hi int) { shard(dst, a, b, lo, hi) })
		return dst
	}
	shard(dst, a, b, 0, b.r)
	return dst
}

// contractNTShard computes dst[q, r] for r in [lo, hi): B-row outer, A-row
// inner, one serial dot product per element (ascending k), written
// column-strided into dst's row-major layout — the transposed write of the
// mode contraction. It works in 4×2 register tiles (four rows of A against
// two rows of B) whose eight chains are independent, so the loop is
// throughput-bound rather than bound by the add latency of one chain, and
// each row of B is read once per four rows of A instead of once per row.
// Leftover A rows run in 1×2 tiles and an odd last B row in single chains;
// the arithmetic per element is the same either way. The rows are hoisted
// raw slices resliced to one length, so the compiler drops the inner
// bounds checks.
func contractNTShard(dst, a, b *Dense, lo, hi int) {
	n, ar, kk := b.r, a.r, a.c
	ad, bd, dd := a.data, b.data, dst.data
	r := lo
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
// independent of the split. It is also independent of the kernel backend,
// so ContractTN has one implementation for both: its SIMD lanes, where the
// hardware has them, are separate output elements, never a split of one
// element's sum.
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
// accumulated and then mirrored).
func Gram(dst, a *Dense) *Dense {
	dst = prepDst(dst, a.c, a.c)
	if KernelBackend() == BackendFast {
		gramFast(dst, a)
		return dst
	}
	n := a.c
	for k := 0; k < a.r; k++ {
		row := a.Row(k)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			drow := dst.data[i*n : i*n+n]
			for j := i; j < n; j++ {
				drow[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[j*n+i] = dst.data[i*n+j]
		}
	}
	return dst
}

// MatVec computes dst = A·x. dst may be nil.
func MatVec(dst []float64, a *Dense, x []float64) []float64 {
	if len(x) != a.c {
		panic("mat: MatVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.r)
	} else if len(dst) != a.r {
		panic("mat: MatVec dst length mismatch")
	}
	if KernelBackend() == BackendFast {
		matVecFast(dst, a, x)
		return dst
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

// MatTVec computes dst = Aᵀ·y. dst may be nil.
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
	if KernelBackend() == BackendFast {
		matTVecFast(dst, a, y)
		return dst
	}
	for i := 0; i < a.r; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			dst[j] += yi * v
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
