package mat

// The fast backend's kernels. Two primitives do all the work:
//
//   - dotFast: an 8-lane multi-accumulator dot product. The serial
//     reference dot is latency-bound — each s += a[k]*b[k] waits ~4
//     cycles for the previous add — so eight independent lanes expose
//     the ILP the chain hides and roughly double scalar throughput;
//     the AVX2 variant maps the same lanes onto two ymm accumulators
//     for another ~2x. Lane assignment and reduction order are fixed
//     constants (see dotFastGeneric), so a fast dot is one specific
//     float result: identical across Workers counts, across runs, and
//     across the assembly and pure-Go implementations.
//
//   - axpyFast: dst[j] += alpha*src[j]. Elementwise — no reordering is
//     possible, so the axpy-shaped fast kernels (Gram, MatTVec, Axpy)
//     are bit-identical to the reference backend; only the dot-shaped
//     ones (MulNT, ContractNT, MatVec, Dot) differ, at ULP.
//
// Mul, MulTN and ContractTN have no fast variant: their one kernel
// already vectorizes across output elements and so computes the
// reference bits at full speed under both backends.
//
// The axpy kernels keep the reference kernels' zero skips: skipping a
// zero multiplier is observable when the skipped row carries
// non-finite values (0*Inf = NaN), so the fast backend must skip
// exactly where the oracle skips.

// dotLanes is the fast backend's accumulator lane count. Eight lanes
// fill two AVX2 ymm registers and are enough to hide FMA-add latency
// on every amd64 core that matters; the value is part of the fast
// backend's determinism contract and must never change without a new
// backend name (keys tagged "fast" would otherwise change meaning).
const dotLanes = 8

// dotFast computes the fast backend's dot product of a and b[:len(a)].
// len(b) must be at least len(a).
func dotFast(a, b []float64) float64 {
	if haveAVX2 {
		return dotAVX2(a, b)
	}
	return dotFastGeneric(a, b)
}

// dotFastGeneric is the portable implementation of the fast dot and
// the definition of its arithmetic: lane j accumulates elements j,
// j+8, j+16, …; lanes reduce pairwise as r_j = s_j + s_{j+4}, then
// (r0+r2) + (r1+r3); the tail (len%8 elements) accumulates serially
// onto the reduced sum. dotAVX2 implements exactly this tree with
// vmulpd/vaddpd (never FMA — fusing would change rounding), so the two
// agree to the bit and "fast" means the same floats on every machine.
func dotFastGeneric(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+dotLanes <= n; i += dotLanes {
		aa := a[i : i+dotLanes : i+dotLanes]
		bb := b[i : i+dotLanes : i+dotLanes]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	r0, r1, r2, r3 := s0+s4, s1+s5, s2+s6, s3+s7
	s := (r0 + r2) + (r1 + r3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpyFast computes dst[j] += alpha*src[j] for j in [0, len(dst));
// len(src) must be at least len(dst). Elementwise, so any lane width
// gives the same bits — the AVX2 path is purely a throughput win.
func axpyFast(alpha float64, dst, src []float64) {
	if haveAVX2 {
		axpyAVX2(alpha, dst, src)
		return
	}
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] += alpha * v
	}
}

// mulNTShardFast computes rows [lo, hi) of dst = A·Bᵀ for the fast
// backend: one fast dot per output element.
func mulNTShardFast(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		for j := 0; j < b.r; j++ {
			crow[j] = dotFast(arow, b.Row(j))
		}
	}
}

// contractNTShardFast computes dst[q, r] for r in [lo, hi) with the
// fast dot; the traversal (B-row outer, A cache-resident) matches
// contractNTShard so sharding and memory behavior are unchanged —
// only the per-element accumulation order differs.
func contractNTShardFast(dst, a, b *Dense, lo, hi int) {
	n, ar, kk := b.r, a.r, a.c
	ad, bd, dd := a.data, b.data, dst.data
	for r := lo; r < hi; r++ {
		brow := bd[r*kk : r*kk+kk]
		for q := 0; q < ar; q++ {
			dd[q*n+r] = dotFast(ad[q*kk:q*kk+kk], brow)
		}
	}
}

// gramFast computes AᵀA for the fast backend. The inner update is an
// axpy over the upper-triangle row suffix, so the result is
// bit-identical to the reference Gram.
func gramFast(dst, a *Dense) {
	n := a.c
	for k := 0; k < a.r; k++ {
		row := a.Row(k)
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			axpyFast(vi, dst.data[i*n+i:i*n+n], row[i:])
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[j*n+i] = dst.data[i*n+j]
		}
	}
}

// matVecFast computes dst = A·x with the fast dot.
func matVecFast(dst []float64, a *Dense, x []float64) {
	for i := 0; i < a.r; i++ {
		dst[i] = dotFast(a.Row(i), x)
	}
}

// matTVecFast computes dst += Aᵀ·y rows (dst already zeroed by the
// caller). Axpy-shaped: bit-identical to the reference MatTVec.
func matTVecFast(dst []float64, a *Dense, y []float64) {
	for i := 0; i < a.r; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		axpyFast(yi, dst, a.Row(i))
	}
}
