// Package workload implements the logical query workloads of Sections 3–4:
// per-attribute predicate sets (Identity, Total, Prefix, AllRange, ...),
// products of predicate sets across attributes (Definition 2), and weighted
// unions of products (Definition 3). Predicate sets expose their Gram matrix
// WᵀW — the only quantity strategy optimization needs (Section 5) — in
// closed form where the explicit matrix would be too large to materialize
// (e.g. AllRange has Θ(n²) rows).
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mat"
)

// gramCache lazily computes and memoizes a Gram matrix. Predicate sets are
// shared across concurrent optimizer restarts, so the cache must be safe for
// simultaneous first use; sync.Once also guarantees every caller sees the
// same matrix instance.
type gramCache struct {
	once sync.Once
	g    *mat.Dense
}

func (c *gramCache) get(build func() *mat.Dense) *mat.Dense {
	c.once.Do(func() { c.g = build() })
	return c.g
}

// PredicateSet is a set of 0/1 predicates over a single attribute with
// domain size Cols(), viewed as a Rows()×Cols() binary matrix.
type PredicateSet interface {
	// Rows returns the number of predicates.
	Rows() int
	// Cols returns the attribute domain size.
	Cols() int
	// Gram returns the Cols()×Cols() matrix WᵀW. Implementations cache it;
	// callers must not modify the result.
	Gram() *mat.Dense
	// Matrix returns the explicit predicate matrix. Implementations panic if
	// materialization is infeasible (see CanMaterialize). Callers must not
	// modify the result: built-ins with super-linear matrices (I, P, R,
	// W<k>) memoize it on the instance, so the same object is shared
	// (total's 1×n matrix is rebuilt per call — cheaper than pinning).
	Matrix() *mat.Dense
	// CanMaterialize reports whether Matrix is safe to call.
	CanMaterialize() bool
	// ColCounts returns, per domain element, how many predicates include it
	// (the column sums; for 0/1 matrices this is diag(Gram)).
	ColCounts() []float64
	// Name is a short identifier used in diagnostics.
	Name() string
}

// maxExplicitCells bounds how many matrix cells Matrix() will materialize.
const maxExplicitCells = 64 << 20

// Canonicalizer is the optional interface behind workload fingerprinting
// (internal/registry): a predicate set that knows a canonical structural
// token returns one that is equal exactly for structurally identical sets.
// Implementations outside this package may omit it; CanonicalToken falls
// back to hashing the Gram matrix, which is slower but just as
// shape-sensitive.
type Canonicalizer interface {
	// Canonical returns a token that uniquely identifies the predicate
	// set's structure (kind, domain size, and all shape parameters).
	Canonical() string
}

// CanonicalToken returns the canonical structural token of a predicate
// set: the set's own Canonical() when implemented (all built-ins), else a
// digest of the Gram matrix and row count, which identifies the set's
// optimization and error behavior exactly.
func CanonicalToken(t PredicateSet) string {
	if c, ok := t.(Canonicalizer); ok {
		return c.Canonical()
	}
	return hashToken("G", t.Rows(), t.Cols(), t.Gram().Data())
}

// BuiltinToken returns t's canonical token when t is one of this
// package's own predicate sets whose matrix that token fixes: I, T, P, R,
// W<k>, and a permutation of one of them. ok is false for Explicit, whose
// matrix the caller owns and may change, and for sets defined elsewhere,
// whose tokens this package cannot vouch for.
func BuiltinToken(t PredicateSet) (tok string, ok bool) {
	switch p := t.(type) {
	case *identity, *total, *prefix, *allRange, *widthRange:
		return t.(Canonicalizer).Canonical(), true
	case *permuted:
		if _, ok := BuiltinToken(p.base); ok {
			return p.Canonical(), true
		}
	}
	return "", false
}

// hashToken renders "<prefix>:<rows>:<cols>:<sha256 of the float bits>" —
// the one canonical float-matrix encoding every digest-based token uses.
func hashToken(prefix string, rows, cols int, data []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s:%d:%d:%x", prefix, rows, cols, h.Sum(nil))
}

// IsTotalOrIdentity reports whether ps is the Total or Identity predicate
// set. HDMM's parameter convention (Section 7.1) sets p=1 for attributes
// whose predicate sets are all within T ∪ I.
func IsTotalOrIdentity(ps PredicateSet) bool {
	switch ps.(type) {
	case *identity, *total:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Explicit predicate sets
// ---------------------------------------------------------------------------

// Explicit wraps an arbitrary explicit predicate matrix.
type Explicit struct {
	m    *mat.Dense
	name string
	gram gramCache
}

// NewExplicit wraps m (not copied) as a predicate set.
func NewExplicit(name string, m *mat.Dense) *Explicit {
	return &Explicit{m: m, name: name}
}

func (e *Explicit) Rows() int            { return e.m.Rows() }
func (e *Explicit) Cols() int            { return e.m.Cols() }
func (e *Explicit) Matrix() *mat.Dense   { return e.m }
func (e *Explicit) CanMaterialize() bool { return true }
func (e *Explicit) Name() string         { return e.name }

func (e *Explicit) Gram() *mat.Dense {
	return e.gram.get(func() *mat.Dense { return mat.Gram(nil, e.m) })
}

func (e *Explicit) ColCounts() []float64 {
	return mat.ColAbsSums(e.m)
}

// Canonical hashes the matrix content, not the user-supplied name, so two
// Explicit sets fingerprint equal iff their matrices are identical.
func (e *Explicit) Canonical() string {
	return hashToken("E", e.m.Rows(), e.m.Cols(), e.m.Data())
}

// ---------------------------------------------------------------------------
// Identity / Total
// ---------------------------------------------------------------------------

// identity is the Identity predicate set I: one point predicate per element.
// Pointer type so Matrix() can be memoized on the shared instance, keeping
// the serving layer's charge-once answer accounting truthful. Gram() stays
// unmemoized on purpose: strategy selection eagerly warms Grams on every
// term, and pinning a trivially recomputable n×n Eye for the life of every
// engine would turn transient selection work into permanent memory.
// Matrix() memoization is lazy — only answer evaluation materializes it,
// and the serving budget bounds what evaluation may touch.
type identity struct {
	n      int
	matrix gramCache
}

// Identity returns the predicate set {t.A == a | a ∈ dom(A)}.
func Identity(n int) PredicateSet { return &identity{n: n} }

func (p *identity) Rows() int        { return p.n }
func (p *identity) Cols() int        { return p.n }
func (p *identity) Gram() *mat.Dense { return mat.Eye(p.n) }
func (p *identity) Matrix() *mat.Dense {
	return p.matrix.get(func() *mat.Dense { return mat.Eye(p.n) })
}
func (p *identity) CanMaterialize() bool { return true }
func (p *identity) Name() string         { return fmt.Sprintf("I(%d)", p.n) }
func (p *identity) ColCounts() []float64 { return constVec(p.n, 1) }
func (p *identity) Canonical() string    { return "I:" + strconv.Itoa(p.n) }

// total is the Total predicate set T: the single always-true predicate.
// Gram stays unmemoized for the same reason as identity's (a recomputable
// n×n ones matrix must not be pinned per engine); its 1×n Matrix is cheaper
// to rebuild than to pin.
type total struct {
	n int
}

// Total returns the predicate set {True}, counting all records.
func Total(n int) PredicateSet { return &total{n: n} }

func (p *total) Rows() int            { return 1 }
func (p *total) Cols() int            { return p.n }
func (p *total) Gram() *mat.Dense     { return mat.Ones(p.n, p.n) }
func (p *total) Matrix() *mat.Dense   { return mat.Ones(1, p.n) }
func (p *total) CanMaterialize() bool { return true }
func (p *total) Name() string         { return fmt.Sprintf("T(%d)", p.n) }
func (p *total) ColCounts() []float64 { return constVec(p.n, 1) }
func (p *total) Canonical() string    { return "T:" + strconv.Itoa(p.n) }

// ---------------------------------------------------------------------------
// Prefix
// ---------------------------------------------------------------------------

// prefix is the Prefix predicate set P: ranges [0, i] for every i.
type prefix struct {
	n      int
	gram   gramCache
	matrix gramCache
}

// Prefix returns the CDF workload {a1 ≤ t.A ≤ ai | ai ∈ dom(A)}.
func Prefix(n int) PredicateSet { return &prefix{n: n} }

func (p *prefix) Rows() int            { return p.n }
func (p *prefix) Cols() int            { return p.n }
func (p *prefix) CanMaterialize() bool { return p.n*p.n <= maxExplicitCells }
func (p *prefix) Name() string         { return fmt.Sprintf("P(%d)", p.n) }
func (p *prefix) Canonical() string    { return "P:" + strconv.Itoa(p.n) }

// Gram of Prefix: element i is in prefixes i..n-1, so
// (WᵀW)[i,j] = #{k : k >= max(i,j)} = n - max(i,j).
func (p *prefix) Gram() *mat.Dense {
	return p.gram.get(func() *mat.Dense {
		g := mat.NewDense(p.n, p.n)
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				g.Set(i, j, float64(p.n-maxInt(i, j)))
			}
		}
		return g
	})
}

func (p *prefix) Matrix() *mat.Dense {
	mustMaterialize(p)
	return p.matrix.get(func() *mat.Dense {
		m := mat.NewDense(p.n, p.n)
		for i := 0; i < p.n; i++ {
			row := m.Row(i)
			for j := 0; j <= i; j++ {
				row[j] = 1
			}
		}
		return m
	})
}

func (p *prefix) ColCounts() []float64 {
	out := make([]float64, p.n)
	for i := range out {
		out[i] = float64(p.n - i)
	}
	return out
}

// ---------------------------------------------------------------------------
// AllRange
// ---------------------------------------------------------------------------

// allRange is the AllRange predicate set R: every interval [i, j].
type allRange struct {
	n      int
	gram   gramCache
	matrix gramCache
}

// AllRange returns the set of all n(n+1)/2 range queries on the attribute.
func AllRange(n int) PredicateSet { return &allRange{n: n} }

func (p *allRange) Rows() int            { return p.n * (p.n + 1) / 2 }
func (p *allRange) Cols() int            { return p.n }
func (p *allRange) CanMaterialize() bool { return p.Rows()*p.n <= maxExplicitCells }
func (p *allRange) Name() string         { return fmt.Sprintf("R(%d)", p.n) }
func (p *allRange) Canonical() string    { return "R:" + strconv.Itoa(p.n) }

// Gram of AllRange: ranges containing both i and j are [a,b] with
// a <= min(i,j) and b >= max(i,j), so (WᵀW)[i,j] = (min+1)·(n-max).
func (p *allRange) Gram() *mat.Dense {
	return p.gram.get(func() *mat.Dense {
		g := mat.NewDense(p.n, p.n)
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				lo, hi := i, j
				if lo > hi {
					lo, hi = hi, lo
				}
				g.Set(i, j, float64((lo+1)*(p.n-hi)))
			}
		}
		return g
	})
}

func (p *allRange) Matrix() *mat.Dense {
	mustMaterialize(p)
	return p.matrix.get(func() *mat.Dense {
		m := mat.NewDense(p.Rows(), p.n)
		r := 0
		for i := 0; i < p.n; i++ {
			for j := i; j < p.n; j++ {
				row := m.Row(r)
				for k := i; k <= j; k++ {
					row[k] = 1
				}
				r++
			}
		}
		return m
	})
}

func (p *allRange) ColCounts() []float64 {
	out := make([]float64, p.n)
	for i := range out {
		out[i] = float64((i + 1) * (p.n - i))
	}
	return out
}

// ---------------------------------------------------------------------------
// WidthRange
// ---------------------------------------------------------------------------

// widthRange contains all ranges of a fixed width w: [i, i+w-1].
type widthRange struct {
	n, w   int
	gram   gramCache
	matrix gramCache
}

// WidthRange returns the n-w+1 range queries of width exactly w.
func WidthRange(n, w int) PredicateSet {
	if w < 1 || w > n {
		panic(fmt.Sprintf("workload: width %d out of range for domain %d", w, n))
	}
	return &widthRange{n: n, w: w}
}

func (p *widthRange) Rows() int            { return p.n - p.w + 1 }
func (p *widthRange) Cols() int            { return p.n }
func (p *widthRange) CanMaterialize() bool { return p.Rows()*p.n <= maxExplicitCells }
func (p *widthRange) Name() string         { return fmt.Sprintf("W%d(%d)", p.w, p.n) }
func (p *widthRange) Canonical() string    { return fmt.Sprintf("W:%d:%d", p.w, p.n) }

// Gram: windows [s, s+w-1] containing both i and j require
// max(i,j)-w+1 <= s <= min(i,j), intersected with 0 <= s <= n-w.
func (p *widthRange) Gram() *mat.Dense {
	return p.gram.get(func() *mat.Dense {
		g := mat.NewDense(p.n, p.n)
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				g.Set(i, j, float64(p.overlap(i, j)))
			}
		}
		return g
	})
}

func (p *widthRange) overlap(i, j int) int {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	smin := maxInt(0, hi-p.w+1)
	smax := minInt(lo, p.n-p.w)
	if smax < smin {
		return 0
	}
	return smax - smin + 1
}

func (p *widthRange) Matrix() *mat.Dense {
	mustMaterialize(p)
	return p.matrix.get(func() *mat.Dense {
		m := mat.NewDense(p.Rows(), p.n)
		for s := 0; s < p.Rows(); s++ {
			row := m.Row(s)
			for k := s; k < s+p.w; k++ {
				row[k] = 1
			}
		}
		return m
	})
}

func (p *widthRange) ColCounts() []float64 {
	out := make([]float64, p.n)
	for i := range out {
		out[i] = float64(p.overlap(i, i))
	}
	return out
}

// ---------------------------------------------------------------------------
// Permuted
// ---------------------------------------------------------------------------

// permuted right-multiplies a base predicate set by a permutation of the
// domain: query q becomes q∘π. Used by the Permuted Range workload.
type permuted struct {
	base PredicateSet
	perm []int // column j of permuted = column perm[j] of base
	gram gramCache
}

// Permute shuffles the domain of base with perm (perm[j] gives the base
// domain element placed at position j).
func Permute(base PredicateSet, perm []int) PredicateSet {
	if len(perm) != base.Cols() {
		panic("workload: permutation length mismatch")
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			panic("workload: not a permutation")
		}
		seen[v] = true
	}
	return &permuted{base: base, perm: append([]int(nil), perm...)}
}

func (p *permuted) Rows() int            { return p.base.Rows() }
func (p *permuted) Cols() int            { return p.base.Cols() }
func (p *permuted) CanMaterialize() bool { return p.base.CanMaterialize() }
func (p *permuted) Name() string         { return "perm:" + p.base.Name() }

// Canonical embeds the permutation and the base set's token (falling back
// to the base's Gram digest when it has no Canonical of its own).
func (p *permuted) Canonical() string {
	parts := make([]string, len(p.perm))
	for i, v := range p.perm {
		parts[i] = strconv.Itoa(v)
	}
	return "perm:" + strings.Join(parts, ",") + ":" + CanonicalToken(p.base)
}

func (p *permuted) Gram() *mat.Dense {
	return p.gram.get(func() *mat.Dense {
		bg := p.base.Gram()
		n := p.Cols()
		g := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			bi := p.perm[i]
			for j := 0; j < n; j++ {
				g.Set(i, j, bg.At(bi, p.perm[j]))
			}
		}
		return g
	})
}

func (p *permuted) Matrix() *mat.Dense {
	bm := p.base.Matrix()
	m := mat.NewDense(bm.Rows(), bm.Cols())
	for i := 0; i < bm.Rows(); i++ {
		src, dst := bm.Row(i), m.Row(i)
		for j := range dst {
			dst[j] = src[p.perm[j]]
		}
	}
	return m
}

func (p *permuted) ColCounts() []float64 {
	base := p.base.ColCounts()
	out := make([]float64, len(base))
	for j := range out {
		out[j] = base[p.perm[j]]
	}
	return out
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func mustMaterialize(p PredicateSet) {
	if !p.CanMaterialize() {
		panic(fmt.Sprintf("workload: %s is too large to materialize (%d×%d)", p.Name(), p.Rows(), p.Cols()))
	}
}

func constVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
