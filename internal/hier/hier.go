// Package hier implements the hierarchical-strategy baselines of Section 8
// (HB, GreedyH, QuadTree) on top of one shared piece of machinery: every
// level Gram BℓᵀBℓ of a (mixed-radix) b-adic aggregation hierarchy is block
// constant, so all levels are simultaneously diagonalized by the b-adic
// Haar-like basis. That reduces the exact expected-error computation
// tr((AᵀA)⁻¹·WᵀW) to per-scale sums of vᵀYv — O(n²) work with no matrix
// factorization, which is what lets the Table 4 comparisons run at n = 8192.
package hier

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/optimize"
)

// Hierarchy is a weighted aggregation hierarchy over a 1-D domain.
// Level 0 is the root (one node covering everything); level ℓ has
// ∏_{i<ℓ} b_i nodes; the last level is the leaves. Weights scale the rows
// of each level in the strategy matrix.
type Hierarchy struct {
	N          int
	Branchings []int     // per-level fan-out b_1..b_L with ∏ b_i = N
	Weights    []float64 // per-level weights w_0..w_L (length L+1)
}

// New builds a uniform-weight hierarchy with the given branchings.
func New(n int, branchings []int) (*Hierarchy, error) {
	prod := 1
	for _, b := range branchings {
		if b < 2 {
			return nil, fmt.Errorf("hier: branching %d < 2", b)
		}
		prod *= b
	}
	if prod != n {
		return nil, fmt.Errorf("hier: branchings multiply to %d, want %d", prod, n)
	}
	w := make([]float64, len(branchings)+1)
	for i := range w {
		w[i] = 1
	}
	return &Hierarchy{N: n, Branchings: branchings, Weights: w}, nil
}

// UniformBranchings factors n as b^k·r (r < b a final ragged-free factor),
// returning nil if n has no such clean factorization with all factors >= 2.
func UniformBranchings(n, b int) []int {
	var out []int
	for n%b == 0 {
		out = append(out, b)
		n /= b
	}
	if n == 1 {
		return out
	}
	if n >= 2 {
		return append(out, n)
	}
	return nil
}

// Levels returns L+1, the number of levels including root and leaves.
func (h *Hierarchy) Levels() int { return len(h.Branchings) + 1 }

// BlockSize returns m_ℓ, the number of leaves under one node of level ℓ.
func (h *Hierarchy) BlockSize(level int) int {
	m := h.N
	for i := 0; i < level; i++ {
		m /= h.Branchings[i]
	}
	return m
}

// Sensitivity is Σ w_ℓ: each domain element is covered once per level.
func (h *Hierarchy) Sensitivity() float64 {
	s := 0.0
	for _, w := range h.Weights {
		s += w
	}
	return s
}

// Rows returns the total number of strategy queries.
func (h *Hierarchy) Rows() int {
	total, nodes := 0, 1
	for ℓ := 0; ℓ < h.Levels(); ℓ++ {
		total += nodes
		if ℓ < len(h.Branchings) {
			nodes *= h.Branchings[ℓ]
		}
	}
	return total
}

// Matrix materializes the explicit strategy matrix (tests and measurement).
func (h *Hierarchy) Matrix() *mat.Dense {
	m := mat.NewDense(h.Rows(), h.N)
	r := 0
	for ℓ := 0; ℓ < h.Levels(); ℓ++ {
		sz := h.BlockSize(ℓ)
		w := h.Weights[ℓ]
		for start := 0; start < h.N; start += sz {
			row := m.Row(r)
			for k := start; k < start+sz; k++ {
				row[k] = w
			}
			r++
		}
	}
	return m
}

// Eigenvalues returns λ_s for s = 0..L: the shared-eigenbasis eigenvalue of
// AᵀA = Σ w_ℓ²·BℓᵀBℓ on scale-s basis vectors, λ_s = Σ_{ℓ>=s} w_ℓ²·m_ℓ.
func (h *Hierarchy) Eigenvalues() []float64 {
	L := h.Levels()
	lam := make([]float64, L)
	acc := 0.0
	for s := L - 1; s >= 0; s-- {
		m := float64(h.BlockSize(s))
		acc += h.Weights[s] * h.Weights[s] * m
		lam[s] = acc
	}
	return lam
}

// ScaleSums computes c_s = Σ_{v in scale s} vᵀYv for the b-adic basis of the
// given branchings, for a dense symmetric Y. Scale 0 is the constant vector;
// scale s >= 1 has one group of b_s−1 vectors per level-(s−1) block. The sum
// over the Helmert vectors of a block with children c of equal size m/b is
//
//	(b/m)·( Σ_c S_cc − (1/b)·Σ_{c,c'} S_cc' )
//
// where S_cc' are child-pair block sums of Y, evaluated in O(1) via a 2-D
// prefix-sum table.
func ScaleSums(y *mat.Dense, n int, branchings []int) []float64 {
	if y.Rows() != n || y.Cols() != n {
		panic("hier: ScaleSums dimension mismatch")
	}
	ps := newPrefixSum(y)
	L := len(branchings) + 1
	c := make([]float64, L)
	// Scale 0: constant vector 1/√n.
	c[0] = ps.sum(0, n, 0, n) / float64(n)
	blockSize := n
	for s := 1; s < L; s++ {
		b := branchings[s-1]
		m := blockSize // parent block size
		child := m / b
		total := 0.0
		for start := 0; start < n; start += m {
			diag, all := 0.0, 0.0
			for ci := 0; ci < b; ci++ {
				r0 := start + ci*child
				diag += ps.sum(r0, r0+child, r0, r0+child)
			}
			all = ps.sum(start, start+m, start, start+m)
			total += (float64(b) / float64(m)) * (diag - all/float64(b))
		}
		c[s] = total
		blockSize = child
	}
	return c
}

// TraceInv returns tr((AᵀA)⁻¹·Y) = Σ_s c_s/λ_s given precomputed scale sums.
func (h *Hierarchy) TraceInv(c []float64) float64 {
	lam := h.Eigenvalues()
	if len(c) != len(lam) {
		panic("hier: scale-sum length mismatch")
	}
	total := 0.0
	for s := range c {
		total += c[s] / lam[s]
	}
	return total
}

// Err returns the expected total squared error sens²·tr((AᵀA)⁻¹·Y) of
// answering a workload with Gram Y (2/ε² factor omitted).
func (h *Hierarchy) Err(y *mat.Dense) float64 {
	c := ScaleSums(y, h.N, h.Branchings)
	s := h.Sensitivity()
	return s * s * h.TraceInv(c)
}

// ---------------------------------------------------------------------------
// HB: branching factor selected by exact error (Qardaji et al., adaptive)
// ---------------------------------------------------------------------------

// HB returns the best uniform-branching hierarchy for the Gram y, searching
// branching factors 2..maxB (with a ragged final factor allowed) and also
// the flat (identity-only) hierarchy. This mirrors HB's adaptive branching
// choice but uses the exact error rather than the all-range heuristic.
func HB(y *mat.Dense, n, maxB int) *Hierarchy {
	if maxB < 2 {
		maxB = 16
	}
	var best *Hierarchy
	bestErr := math.Inf(1)
	for b := 2; b <= maxB && b <= n; b++ {
		branchings := UniformBranchings(n, b)
		if branchings == nil {
			continue
		}
		h, err := New(n, branchings)
		if err != nil {
			continue
		}
		if e := h.Err(y); e < bestErr {
			best, bestErr = h, e
		}
	}
	if best == nil {
		// n prime or awkward: single level of leaves under a root.
		h, err := New(n, []int{n})
		if err != nil {
			panic(err)
		}
		return h
	}
	return best
}

// ---------------------------------------------------------------------------
// GreedyH: per-level weights optimized for the workload (Li et al. DAWA)
// ---------------------------------------------------------------------------

// GreedyH returns a binary hierarchy whose per-level weights minimize the
// exact expected error (Σw)²·Σ_s c_s/λ_s(w) for the Gram y, optimized with
// projected L-BFGS (the weighted-hierarchy search of the DAWA paper).
func GreedyH(y *mat.Dense, n int) *Hierarchy {
	branchings := UniformBranchings(n, 2)
	if branchings == nil {
		branchings = []int{n}
	}
	h, err := New(n, branchings)
	if err != nil {
		panic(err)
	}
	c := ScaleSums(y, n, branchings)
	L := h.Levels()
	msizes := make([]float64, L)
	for s := 0; s < L; s++ {
		msizes[s] = float64(h.BlockSize(s))
	}
	obj := func(w, grad []float64) float64 {
		sumW := 0.0
		for _, v := range w {
			sumW += v
		}
		// λ_s = Σ_{ℓ>=s} w_ℓ²·m_ℓ.
		lam := make([]float64, L)
		acc := 0.0
		for s := L - 1; s >= 0; s-- {
			acc += w[s] * w[s] * msizes[s]
			lam[s] = acc
		}
		tr := 0.0
		for s := 0; s < L; s++ {
			tr += c[s] / lam[s]
		}
		f := sumW * sumW * tr
		if grad != nil {
			for l := 0; l < L; l++ {
				g := 2 * sumW * tr
				for s := 0; s <= l; s++ {
					g -= sumW * sumW * c[s] / (lam[s] * lam[s]) * 2 * w[l] * msizes[l]
				}
				grad[l] = g
			}
		}
		return f
	}
	w0 := make([]float64, L)
	lb := make([]float64, L)
	for i := range w0 {
		w0[i] = 1
		lb[i] = 1e-6
	}
	res := optimize.MinimizeBox(obj, w0, lb, nil, optimize.Options{MaxIter: 500})
	h.Weights = res.X
	return h
}

// ---------------------------------------------------------------------------
// 2-D hierarchies: QuadTree and HB-2D
// ---------------------------------------------------------------------------

// Hierarchy2D is a square 2-D hierarchy: level ℓ of the strategy is
// wℓ·(Bℓ ⊗ Bℓ) with Bℓ the 1-D level-ℓ aggregation. QuadTree is the b=2
// case; HB-2D picks b by exact error.
type Hierarchy2D struct {
	H *Hierarchy // the shared per-dimension hierarchy (weights on levels)
}

// NewQuadTree builds the classic quadtree over an n×n grid (b=2, uniform
// weights).
func NewQuadTree(n int) (*Hierarchy2D, error) {
	branchings := UniformBranchings(n, 2)
	if branchings == nil {
		return nil, fmt.Errorf("hier: quadtree needs a power-of-two side, got %d", n)
	}
	h, err := New(n, branchings)
	if err != nil {
		return nil, err
	}
	return &Hierarchy2D{H: h}, nil
}

// Sensitivity: each cell is covered once per level with weight wℓ² ... the
// 2-D level operator Bℓ⊗Bℓ covers each cell exactly once, so ‖A‖₁ = Σ wℓ.
func (q *Hierarchy2D) Sensitivity() float64 { return q.H.Sensitivity() }

// Err2D computes the exact expected error of the 2-D hierarchy on a union
// workload with per-product factor Grams y1[j], y2[j] and weights wj:
// tr((AᵀA)⁻¹·Y) = Σ_j wj²·Σ_{s,t} c1_s·c2_t/λ_{s,t} with
// λ_{s,t} = Σ_{ℓ>=max(s,t)} wℓ²·mℓ².
func (q *Hierarchy2D) Err2D(weights []float64, y1, y2 []*mat.Dense) float64 {
	h := q.H
	L := h.Levels()
	// λ over pair scales.
	lamPair := make([]float64, L) // indexed by max(s,t)
	acc := 0.0
	for s := L - 1; s >= 0; s-- {
		m := float64(h.BlockSize(s))
		acc += h.Weights[s] * h.Weights[s] * m * m
		lamPair[s] = acc
	}
	total := 0.0
	for j := range weights {
		c1 := ScaleSums(y1[j], h.N, h.Branchings)
		c2 := ScaleSums(y2[j], h.N, h.Branchings)
		tr := 0.0
		for s := 0; s < L; s++ {
			for t := 0; t < L; t++ {
				mx := s
				if t > s {
					mx = t
				}
				tr += c1[s] * c2[t] / lamPair[mx]
			}
		}
		total += weights[j] * weights[j] * tr
	}
	sens := q.Sensitivity()
	return sens * sens * total
}

// HB2D picks the uniform branching factor minimizing the exact 2-D error
// (the 2-D analogue of HB's adaptive choice).
func HB2D(n, maxB int, weights []float64, y1, y2 []*mat.Dense) *Hierarchy2D {
	if maxB < 2 {
		maxB = 16
	}
	var best *Hierarchy2D
	bestErr := math.Inf(1)
	for b := 2; b <= maxB && b <= n; b++ {
		branchings := UniformBranchings(n, b)
		if branchings == nil {
			continue
		}
		h, err := New(n, branchings)
		if err != nil {
			continue
		}
		q := &Hierarchy2D{H: h}
		if e := q.Err2D(weights, y1, y2); e < bestErr {
			best, bestErr = q, e
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// prefix sums
// ---------------------------------------------------------------------------

// prefixSum supports O(1) rectangular block sums of a dense matrix.
type prefixSum struct {
	n int
	p []float64 // (n+1)×(n+1)
}

func newPrefixSum(y *mat.Dense) *prefixSum {
	n := y.Rows()
	p := make([]float64, (n+1)*(n+1))
	w := n + 1
	for i := 0; i < n; i++ {
		row := y.Row(i)
		rowAcc := 0.0
		for j := 0; j < n; j++ {
			rowAcc += row[j]
			p[(i+1)*w+j+1] = p[i*w+j+1] + rowAcc
		}
	}
	return &prefixSum{n: n, p: p}
}

// sum returns Σ_{i in [r0,r1), j in [c0,c1)} Y[i,j].
func (ps *prefixSum) sum(r0, r1, c0, c1 int) float64 {
	w := ps.n + 1
	return ps.p[r1*w+c1] - ps.p[r0*w+c1] - ps.p[r1*w+c0] + ps.p[r0*w+c0]
}
