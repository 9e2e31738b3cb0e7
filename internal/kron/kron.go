// Package kron implements the implicit linear operators of Section 4 and the
// Kronecker matrix–vector product of Appendix A.5 (Algorithm 1): dense
// blocks, Kronecker products of dense blocks, vertical stacks, and scalar
// weighting — together these represent every strategy and workload matrix
// HDMM manipulates without materializing them.
//
// The application layer is GEMM-backed and allocation-free: every mode
// contraction of Algorithm 1 is one mat.ContractNT call (out = F·Zᵀ) over
// the caller's reusable two-buffer Workspace, the transpose path runs the exact
// adjoint of that sweep (mode 0 first, one mat.ContractTN call per mode,
// out = Zᵀ·F on the factor as stored) so Aᵀy costs the flops Ax costs.
// Results are bit-identical to the scalar reference algorithm at any worker
// count: each output element is a single serial dot product accumulated
// in ascending index order no matter how the output range is sharded.
package kron

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// SetWorkers sets the process-wide kernel worker bound used by Product and
// Stack applications above the size threshold and returns the previous
// setting. It is the same knob package mat and lsmr consult
// (parallel.SetKernelWorkers). n <= 0 restores the default (GOMAXPROCS(0)).
func SetWorkers(n int) int { return parallel.SetKernelWorkers(n) }

// Workers reports the resolved worker count operator applications will use.
func Workers() int { return parallel.KernelWorkers() }

// Linear is an implicitly represented linear operator. Every application
// draws its scratch from the caller's workspace, which must be non-nil, so
// a hot loop (LSMR iterations, a registration's measure and solve) reuses
// one set of buffers across all of its applications; operators with no
// scratch ignore it.
type Linear interface {
	// Dims returns (rows, cols).
	Dims() (int, int)
	// MatVec writes A·x into dst (len rows); dst may not alias x.
	MatVec(dst, x []float64, ws *Workspace)
	// MatTVec writes Aᵀ·y into dst (len cols); dst may not alias y.
	MatTVec(dst, y []float64, ws *Workspace)
	// Sensitivity returns the L1 operator norm ‖A‖₁ (max abs column sum).
	Sensitivity() float64
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

// Workspace holds the reusable scratch of the Kronecker application kernels:
// two ping-pong buffers for the mode-contraction intermediates, reusable
// matrix headers for the per-step GEMM views, per-block sub-workspaces plus
// reduction buffers for stacked operators, and a ColScaled staging buffer.
// A Workspace may serve one application at a time; concurrent block
// applications inside a Stack or Sum each get their own child. The zero
// value is NOT ready for use — call NewWorkspace.
type Workspace struct {
	bufs  [2][]float64 // ping-pong mode-contraction intermediates
	z, o  *mat.Dense   // reusable GEMM view headers (input, output)
	kids  []*Workspace // per-block workspaces for Stack and Sum fan-out
	reds  [][]float64  // per-block reduction buffers for Stack.MatTVec and Sum
	scale []float64    // ColScaled's scaled-input staging
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are retained across applications.
func NewWorkspace() *Workspace {
	return &Workspace{z: mat.FromData(0, 0, nil), o: mat.FromData(0, 0, nil)}
}

// buf returns ping-pong buffer i (0 or 1) with length n, growing it if
// needed. Contents are unspecified; callers overwrite every element.
func (w *Workspace) buf(i, n int) []float64 {
	if cap(w.bufs[i]) < n {
		w.bufs[i] = make([]float64, n)
	}
	return w.bufs[i][:n]
}

// reserve grows the ping-pong buffers a sweep over factors uses to the
// sweep's largest intermediate, so each buffer is allocated at most once
// whichever sweep runs first. Both sweeps pass through the same
// intermediate lengths, ∏_{j<i} cols_j · ∏_{j≥i} rows_j for 0 < i < d.
// Growing step by step would allocate a buffer again each time its parity
// meets a longer intermediate, and again when the adjoint sweep visits the
// lengths in the other order.
func (w *Workspace) reserve(factors []*mat.Dense) {
	longest := 0
	for i := 1; i < len(factors); i++ {
		n := 1
		for j, f := range factors {
			if j < i {
				n *= f.Cols()
			} else {
				n *= f.Rows()
			}
		}
		longest = max(longest, n)
	}
	for i := 0; i < min(len(factors)-1, 2); i++ {
		w.buf(i, longest)
	}
}

// children returns n child workspaces, creating any missing ones. It must
// be called before (never inside) a parallel region handing child i to
// goroutine i.
func (w *Workspace) children(n int) []*Workspace {
	for len(w.kids) < n {
		w.kids = append(w.kids, NewWorkspace())
	}
	return w.kids[:n]
}

// blockTmps returns n reduction buffers of length c each, growing as
// needed. Like children it must be called before a parallel region; the
// per-index slices may then be filled concurrently.
func (w *Workspace) blockTmps(n, c int) [][]float64 {
	for len(w.reds) < n {
		w.reds = append(w.reds, nil)
	}
	for i := 0; i < n; i++ {
		if cap(w.reds[i]) < c {
			w.reds[i] = make([]float64, c)
		}
		w.reds[i] = w.reds[i][:c]
	}
	return w.reds[:n]
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

// Dense adapts a mat.Dense to the Linear interface.
type Dense struct{ M *mat.Dense }

// Wrap wraps an explicit matrix.
func Wrap(m *mat.Dense) Dense { return Dense{M: m} }

func (d Dense) Dims() (int, int)                       { return d.M.Dims() }
func (d Dense) MatVec(dst, x []float64, _ *Workspace)  { mat.MatVec(dst, d.M, x) }
func (d Dense) MatTVec(dst, y []float64, _ *Workspace) { mat.MatTVec(dst, d.M, y) }
func (d Dense) Sensitivity() float64                   { return mat.L1Norm(d.M) }

// ---------------------------------------------------------------------------
// Kronecker product
// ---------------------------------------------------------------------------

// Product is the Kronecker product A1 ⊗ ··· ⊗ Ad of dense factors.
type Product struct {
	Factors []*mat.Dense
}

// NewProduct builds a Kronecker product operator.
func NewProduct(factors ...*mat.Dense) *Product {
	if len(factors) == 0 {
		panic("kron: empty product")
	}
	return &Product{Factors: factors}
}

// Dims returns (∏ rows, ∏ cols).
func (p *Product) Dims() (int, int) {
	r, c := 1, 1
	for _, f := range p.Factors {
		fr, fc := f.Dims()
		r *= fr
		c *= fc
	}
	return r, c
}

// Sensitivity implements Theorem 3: ‖A1⊗···⊗Ad‖₁ = ∏‖Ai‖₁.
func (p *Product) Sensitivity() float64 {
	s := 1.0
	for _, f := range p.Factors {
		s *= mat.L1Norm(f)
	}
	return s
}

// MatVec writes A·x into dst (len rows) via Algorithm 1, drawing all
// scratch from ws. dst may not alias x. The application performs zero
// allocations once ws's buffers have grown to size.
func (p *Product) MatVec(dst, x []float64, ws *Workspace) { applyFactors(dst, p.Factors, x, ws) }

// MatTVec writes Aᵀ·y into dst (len cols), drawing all scratch from ws.
// dst may not alias y. It runs the adjoint of MatVec's sweep, so it costs
// the multiply-adds MatVec costs; see applyAdjoint.
func (p *Product) MatTVec(dst, y []float64, ws *Workspace) { applyAdjoint(dst, p.Factors, y, ws) }

// applyFactors runs Algorithm 1 (Appendix A.5) forward, A·x, as a sweep of
// GEMMs. It contracts modes d-1 → 0: at each step the current vector is
// viewed as a rows×fc matrix Z whose trailing axis is the mode being
// contracted and whose leading axis carries all not-yet-contracted tensor
// axes, and the factor application "multiply by F and transpose" is
// exactly out = F·Zᵀ — one mat.ContractNT (the factor-resident,
// intermediate-streaming GEMM order) into the next ping-pong buffer (straight
// into dst on the final step), the result axis rotated to the front.
// applyAdjoint is its mirror for Aᵀ·y. Each output element is a single
// dot product accumulated in ascending index order both serially and
// under mat's row sharding, so results are bit-identical to the scalar
// reference at any worker count.
func applyFactors(dst []float64, factors []*mat.Dense, x []float64, ws *Workspace) {
	m, n := 1, 1
	for _, f := range factors {
		fr, fc := f.Dims()
		m *= fr
		n *= fc
	}
	if len(x) != n {
		panic(fmt.Sprintf("kron: input length %d want %d", len(x), n))
	}
	if len(dst) != m {
		panic(fmt.Sprintf("kron: output length %d want %d", len(dst), m))
	}
	ws.reserve(factors)
	cur := x
	buf := 0
	for i := len(factors) - 1; i >= 0; i-- {
		f := factors[i]
		fr, fc := f.Dims()
		var out []float64
		if i == 0 {
			out = dst
		} else {
			out = ws.buf(buf, len(cur)/fc*fr)
			buf ^= 1
		}
		ModeStep(out, f, cur, ws)
		cur = out
	}
}

// ModeStep is one step of the forward sweep: x, viewed as a rows×fc matrix
// Z (rows = len(x)/fc) whose trailing axis is the mode f contracts, becomes
// dst = F·Zᵀ, an fr×rows matrix with the result axis rotated to the front.
// It is one mat.ContractNT call through ws's view headers and touches no
// other workspace state, so a caller that keeps its own intermediates (the
// batched answer path, which shares steps across products) runs exactly
// the arithmetic applyFactors runs. dst must have length fr·rows and may
// not alias x.
func ModeStep(dst []float64, f *mat.Dense, x []float64, ws *Workspace) {
	fr, fc := f.Dims()
	rows := len(x) / fc
	mat.ContractNT(ws.o.Reshape(fr, rows, dst), f, ws.z.Reshape(rows, fc, x))
}

// applyAdjoint writes Aᵀ·y into dst by running applyFactors' sweep for one
// vector backwards: the forward sweep contracts mode d-1 first and rotates
// each result axis to the front, so its adjoint contracts mode 0 first and
// rotates each result axis to the back. At step i the current vector is a
// mᵢ×rest matrix Z whose leading axis is mode i, and the step is
// out = Zᵀ·Aᵢ — one mat.ContractTN on the factor as stored, landing as a
// rest×nᵢ matrix in the next ping-pong buffer (straight into dst on the
// last step). After d steps the axes are back in order (n1,…,nd). Both
// sweeps contract mode i while the other axes are n_j for j < i and m_j
// for j > i, so each step costs mᵢ·nᵢ·rest multiply-adds in either
// direction and cost(Aᵀ) = cost(A) for any factor shapes.
// Like the forward sweep, each output element is one serial sum over k
// ascending, so the result is the same at any worker count.
func applyAdjoint(dst []float64, factors []*mat.Dense, y []float64, ws *Workspace) {
	m, n := 1, 1
	for _, f := range factors {
		fr, fc := f.Dims()
		m *= fr
		n *= fc
	}
	if len(y) != m {
		panic(fmt.Sprintf("kron: input length %d want %d", len(y), m))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("kron: output length %d want %d", len(dst), n))
	}
	ws.reserve(factors)
	cur := y
	size := m // length of cur
	buf := 0
	for i, f := range factors {
		fr, fc := f.Dims()
		rest := size / fr
		var out []float64
		if i == len(factors)-1 {
			out = dst
		} else {
			out = ws.buf(buf, rest*fc)
			buf ^= 1
		}
		z := ws.z.Reshape(fr, rest, cur)
		o := ws.o.Reshape(rest, fc, out)
		mat.ContractTN(o, z, f)
		cur = out
		size = rest * fc
	}
}

// Explicit materializes the full Kronecker product (tests / small sizes).
func (p *Product) Explicit() *mat.Dense {
	cur := mat.Ones(1, 1)
	for _, f := range p.Factors {
		cur = explicitKron(cur, f)
	}
	return cur
}

func explicitKron(a, b *mat.Dense) *mat.Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	out := mat.NewDense(ar*br, ac*bc)
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			v := a.At(i, j)
			if v == 0 {
				continue
			}
			for k := 0; k < br; k++ {
				row := out.Row(i*br + k)
				brow := b.Row(k)
				for l, bv := range brow {
					row[j*bc+l] = v * bv
				}
			}
		}
	}
	return out
}

// Pinv returns the Kronecker product of the factor pseudo-inverses, valid
// because (A1⊗···⊗Ad)⁺ = A1⁺⊗···⊗Ad⁺ (Section 4.4).
func (p *Product) Pinv() (*Product, error) {
	inv := make([]*mat.Dense, len(p.Factors))
	for i, f := range p.Factors {
		fi, err := mat.Pinv(f)
		if err != nil {
			return nil, fmt.Errorf("kron: pinv of factor %d: %w", i, err)
		}
		inv[i] = fi
	}
	return NewProduct(inv...), nil
}

// ---------------------------------------------------------------------------
// Vertical stack
// ---------------------------------------------------------------------------

// Stack is a vertical stack of operators sharing a column count, with
// optional per-block scalar weights; it represents unions of products.
// Blocks must not change after the first application: row offsets are
// computed once and cached.
type Stack struct {
	Blocks  []Linear
	Weights []float64 // nil means all 1

	offsOnce sync.Once
	offs     []int // cached block row offsets, len(Blocks)+1
}

// NewStack builds a stack; weights may be nil.
func NewStack(blocks []Linear, weights []float64) *Stack {
	if len(blocks) == 0 {
		panic("kron: empty stack")
	}
	_, c0 := blocks[0].Dims()
	for _, b := range blocks {
		if _, c := b.Dims(); c != c0 {
			panic("kron: stack column mismatch")
		}
	}
	if weights != nil && len(weights) != len(blocks) {
		panic("kron: stack weights length mismatch")
	}
	return &Stack{Blocks: blocks, Weights: weights}
}

func (s *Stack) weight(i int) float64 {
	if s.Weights == nil {
		return 1
	}
	return s.Weights[i]
}

// Dims returns (Σ rows, cols).
func (s *Stack) Dims() (int, int) {
	offs := s.offsets()
	_, c := s.Blocks[0].Dims()
	return offs[len(offs)-1], c
}

// stackParallelCols is the column count above which Stack applications run
// their blocks concurrently (below it per-block work is too small to fan out).
const stackParallelCols = 1 << 12

// offsets returns each block's starting row in the stacked output,
// computed once (Blocks are immutable after NewStack) — the reference
// implementation rebuilt this slice on every application and Dims call
// inside the LSMR loop.
func (s *Stack) offsets() []int {
	s.offsOnce.Do(func() {
		offs := make([]int, len(s.Blocks)+1)
		for i, b := range s.Blocks {
			br, _ := b.Dims()
			offs[i+1] = offs[i] + br
		}
		s.offs = offs
	})
	return s.offs
}

// MatVec stacks the per-block products. Blocks write disjoint ranges of
// dst, so above the size threshold they run concurrently, each on its own
// child workspace.
func (s *Stack) MatVec(dst, x []float64, ws *Workspace) {
	offs := s.offsets()
	_, c := s.Dims()
	if w := Workers(); w > 1 && len(s.Blocks) > 1 && c >= stackParallelCols {
		kids := ws.children(len(s.Blocks))
		parallel.For(w, len(s.Blocks), func(i int) { s.applyBlockVec(i, dst, x, offs, kids[i]) })
		return
	}
	kid := ws.children(1)[0]
	for i := range s.Blocks {
		s.applyBlockVec(i, dst, x, offs, kid)
	}
}

// applyBlockVec runs block i of a MatVec into its disjoint range of dst.
func (s *Stack) applyBlockVec(i int, dst, x []float64, offs []int, bws *Workspace) {
	lo, hi := offs[i], offs[i+1]
	s.Blocks[i].MatVec(dst[lo:hi], x, bws)
	if w := s.weight(i); w != 1 {
		for j := lo; j < hi; j++ {
			dst[j] *= w
		}
	}
}

// MatTVec sums the per-block transposed products. Above the size
// threshold the per-block products run concurrently into per-block
// workspace buffers, each block on its own child workspace; the weighted
// reduction then runs serially in block order, so the floating-point
// summation order (and hence the result) is identical at any worker count.
func (s *Stack) MatTVec(dst, y []float64, ws *Workspace) {
	_, c := s.Dims()
	for i := range dst {
		dst[i] = 0
	}
	offs := s.offsets()
	if w := Workers(); w > 1 && len(s.Blocks) > 1 && c >= stackParallelCols {
		kids := ws.children(len(s.Blocks))
		tmps := ws.blockTmps(len(s.Blocks), c)
		parallel.For(w, len(s.Blocks), func(i int) {
			s.Blocks[i].MatTVec(tmps[i], y[offs[i]:offs[i+1]], kids[i])
		})
		for i, tmp := range tmps {
			bw := s.weight(i)
			for j, v := range tmp {
				dst[j] += bw * v
			}
		}
		return
	}
	kid := ws.children(1)[0]
	tmp := ws.blockTmps(1, c)[0]
	for i, b := range s.Blocks {
		b.MatTVec(tmp, y[offs[i]:offs[i+1]], kid)
		bw := s.weight(i)
		for j, v := range tmp {
			dst[j] += bw * v
		}
	}
}

// Sensitivity returns Σ wᵢ·‖Aᵢ‖₁, always: with non-negative weights a
// column's L1 norm adds across blocks, so this bounds ‖A‖₁, and it is
// exact when one column attains every block's maximum, as in an OPT⁺
// union, whose blocks have every column's L1 norm equal to 1.
func (s *Stack) Sensitivity() float64 {
	total := 0.0
	for i, b := range s.Blocks {
		total += s.weight(i) * b.Sensitivity()
	}
	return total
}

// ---------------------------------------------------------------------------
// Weighted sum
// ---------------------------------------------------------------------------

// Sum is the weighted sum Σ wᵢ·Termsᵢ of operators of one shape, applied
// term by term to the same input. The Gram of a weighted stack is one:
// AᵀA = Σ wᵢ²·AᵢᵀAᵢ, with no cross terms. Terms must not change after
// construction.
type Sum struct {
	Terms   []Linear
	Weights []float64
}

// NewSum builds a sum with one weight per term.
func NewSum(terms []Linear, weights []float64) *Sum {
	if len(terms) == 0 {
		panic("kron: empty sum")
	}
	r0, c0 := terms[0].Dims()
	for _, t := range terms {
		if r, c := t.Dims(); r != r0 || c != c0 {
			panic("kron: sum shape mismatch")
		}
	}
	if len(weights) != len(terms) {
		panic("kron: sum weights length mismatch")
	}
	return &Sum{Terms: terms, Weights: weights}
}

// Dims returns the terms' shared dimensions.
func (s *Sum) Dims() (int, int) { return s.Terms[0].Dims() }

// MatVec writes Σ wᵢ·Aᵢ·x into dst. Like Stack.MatTVec, the terms run
// concurrently above the size threshold into per-term buffers, each term
// on its own child workspace, and the weighted reduction runs serially in
// term order, so the result is identical at any worker count.
func (s *Sum) MatVec(dst, x []float64, ws *Workspace) { s.apply(dst, x, ws, Linear.MatVec) }

// MatTVec writes Σ wᵢ·Aᵢᵀ·y into dst, as MatVec does.
func (s *Sum) MatTVec(dst, y []float64, ws *Workspace) { s.apply(dst, y, ws, Linear.MatTVec) }

func (s *Sum) apply(dst, x []float64, ws *Workspace, app func(Linear, []float64, []float64, *Workspace)) {
	n := len(dst)
	tmps := ws.blockTmps(len(s.Terms), n)
	if w := Workers(); w > 1 && len(s.Terms) > 1 && n >= stackParallelCols {
		kids := ws.children(len(s.Terms))
		parallel.For(w, len(s.Terms), func(i int) { app(s.Terms[i], tmps[i], x, kids[i]) })
	} else {
		kid := ws.children(1)[0]
		for i, t := range s.Terms {
			app(t, tmps[i], x, kid)
		}
	}
	w0 := s.Weights[0]
	for j, v := range tmps[0] {
		dst[j] = w0 * v
	}
	for i := 1; i < len(tmps); i++ {
		wi := s.Weights[i]
		for j, v := range tmps[i] {
			dst[j] += wi * v
		}
	}
}

// Sensitivity bounds ‖Σ wᵢ·Aᵢ‖₁ by Σ |wᵢ|·‖Aᵢ‖₁.
func (s *Sum) Sensitivity() float64 {
	total := 0.0
	for i, t := range s.Terms {
		total += math.Abs(s.Weights[i]) * t.Sensitivity()
	}
	return total
}

// ---------------------------------------------------------------------------
// Diagonal right-scaling
// ---------------------------------------------------------------------------

// ColScaled composes a diagonal right-scaling into an operator: it
// represents Inner·diag(Scale) without materializing anything. Its role is
// preconditioning — a right preconditioner M = P·D^{-1/2} whose Kronecker
// part P folds into the inner operator's factors while the non-Kronecker
// diagonal D^{-1/2} rides here as an O(cols) elementwise pass per
// application, preserving the inner operator's GEMM structure and its
// bit-identity contracts. Scale must have length cols and must not be
// mutated after first use.
type ColScaled struct {
	Inner Linear
	Scale []float64
}

// NewColScaled wraps inner as inner·diag(scale).
func NewColScaled(inner Linear, scale []float64) *ColScaled {
	_, c := inner.Dims()
	if len(scale) != c {
		panic(fmt.Sprintf("kron: ColScaled scale length %d, inner has %d columns", len(scale), c))
	}
	return &ColScaled{Inner: inner, Scale: scale}
}

// Dims returns the inner operator's dimensions.
func (cs *ColScaled) Dims() (int, int) { return cs.Inner.Dims() }

// MatVec writes Inner·diag(Scale)·x into dst, staging the scaled input in
// the workspace's dedicated ColScaled buffer so the inner application
// (which uses the ping-pong bufs and child workspaces) cannot clobber it.
func (cs *ColScaled) MatVec(dst, x []float64, ws *Workspace) {
	if cap(ws.scale) < len(x) {
		ws.scale = make([]float64, len(x))
	}
	t := ws.scale[:len(x)]
	for i, v := range x {
		t[i] = cs.Scale[i] * v
	}
	cs.Inner.MatVec(dst, t, ws)
}

// MatTVec writes diag(Scale)·Innerᵀ·y into dst: the inner transpose lands
// in dst and the scaling runs in place, so no staging is needed.
func (cs *ColScaled) MatTVec(dst, y []float64, ws *Workspace) {
	cs.Inner.MatTVec(dst, y, ws)
	for i := range dst {
		dst[i] *= cs.Scale[i]
	}
}

// Sensitivity bounds ‖Inner·diag(Scale)‖₁ by max|Scale|·‖Inner‖₁.
func (cs *ColScaled) Sensitivity() float64 {
	m := 0.0
	for _, v := range cs.Scale {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m * cs.Inner.Sensitivity()
}
