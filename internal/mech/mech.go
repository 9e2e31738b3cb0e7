// Package mech implements the measurement and answering stages of Table
// 1(b): the vector-form Laplace mechanism (Definition 6) and its Gaussian
// counterpart (the MEASURE phase), the predicted error of a release, and
// workload answering on a reconstructed estimate. The end-to-end pipeline
// that strings selection, measurement and reconstruction together is the
// serving engine (internal/serve).
package mech

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// RNGStream is the PCG stream constant every seeded entry point uses
// (hdmm.Run, hdmm.RunGaussian, the serving engine). One shared constant is
// what makes "same seed ⇒ byte-identical noise" hold across entry points.
const RNGStream = 0xd9e

// NoiseRNG builds the noise source shared by every entry point that accepts
// a seed (hdmm.Run, hdmm.RunGaussian, the serving engine). A non-zero seed
// selects the deterministic PCG(seed, RNGStream) stream — byte-identical
// noise across entry points for reproducible experiments. Seed zero is the
// production path and draws the PCG state from crypto/rand, so independent
// runs release independent noise. (Treating zero as the literal PCG seed
// would make every unseeded "production" run release the exact same noise
// vector — a correlation an observer could subtract away across releases.)
func NoiseRNG(seed uint64) *rand.Rand {
	if seed != 0 {
		return rand.New(rand.NewPCG(seed, RNGStream))
	}
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand.Read never fails on supported platforms; a broken
		// entropy source must not silently degrade to deterministic noise.
		panic(fmt.Sprintf("mech: reading entropy for noise seed: %v", err))
	}
	return rand.New(rand.NewPCG(
		binary.LittleEndian.Uint64(b[:8]), //hdmmlint:allow detrand seed==0 is the production path: the PCG state is drawn from crypto/rand by design so independent runs release independent noise
		binary.LittleEndian.Uint64(b[8:]),
	))
}

// Laplace draws one sample from the Laplace distribution with mean 0 and
// scale b via inverse-CDF sampling. rand.Float64 draws from [0, 1), so
// u = Float64()-0.5 can land exactly on -0.5, where log(1+2u) = log(0) is
// -Inf — one such draw would poison the whole measurement vector and every
// answer reconstructed from it. The boundary has probability 2⁻⁵³ per draw
// but production serves millions of samples; resample until u is interior
// (the inverse CDF is only defined on the open interval anyway, so this is
// still an exact sampler).
func Laplace(rng *rand.Rand, b float64) float64 {
	u := rng.Float64() - 0.5
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// LaplaceVec fills a fresh length-m vector with Laplace(b) samples.
func LaplaceVec(rng *rand.Rand, b float64, m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = Laplace(rng, b)
	}
	return out
}

// CheckBudget validates a privacy budget before anything is spent: ε must
// be positive and finite (NaN compares false with everything, and +Inf
// means zero noise — the exact data under a nominally private release), δ
// must lie in [0, 1), and the Gaussian mechanism (δ > 0) requires ε ≤ 1
// because its classic calibration is unsound above (see GaussianSigma).
func CheckBudget(eps, delta float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps <= 0 {
		return fmt.Errorf("epsilon must be positive and finite, got %v", eps)
	}
	if math.IsNaN(delta) || delta < 0 || delta >= 1 {
		return fmt.Errorf("delta must be in [0, 1), got %v", delta)
	}
	if delta > 0 && eps > 1 {
		return fmt.Errorf("the Gaussian mechanism's calibration requires ε ≤ 1, got %v (the σ = Δ₂·sqrt(2·ln(1.25/δ))/ε bound is unsound above 1; use δ = 0 for the Laplace mechanism instead)", eps)
	}
	return nil
}

// Measure is the MEASURE phase, y = A·x + noise, run exactly once per
// release. δ = 0 selects the vector-form Laplace mechanism (Definition 6):
// Lap(‖A‖₁/ε)^m noise, ε-differentially private. δ > 0 selects the
// Gaussian mechanism: N(0, σ²)^m noise with σ calibrated to ‖A‖₂ by
// GaussianSigma, (ε,δ)-differentially private and valid only for ε ≤ 1.
// Callers validate the budget with CheckBudget first: an invalid one is a
// programming error here, not an input error.
func Measure(a kron.Linear, x []float64, eps, delta float64, rng *rand.Rand) []float64 {
	rows, cols := a.Dims()
	if len(x) != cols {
		panic(fmt.Sprintf("mech: data vector length %d, strategy has %d columns", len(x), cols))
	}
	if eps <= 0 {
		panic("mech: epsilon must be positive")
	}
	var sigma, b float64
	if delta > 0 {
		sigma = GaussianSigma(L2Sensitivity(a), eps, delta)
	} else {
		b = a.Sensitivity() / eps
	}
	measurementCounter.Add(1)
	y := make([]float64, rows)
	a.MatVec(y, x)
	for i := range y {
		if delta > 0 {
			y[i] += rng.NormFloat64() * sigma
		} else {
			y[i] += Laplace(rng, b)
		}
	}
	return y
}

// ExpectedRMSE is the predicted per-query root-mean-squared error of a
// workload of the given size answered from strategy a, whose expected total
// squared error at sensitivity 1 is errF = ‖W·A⁺‖²_F, under Measure with
// budget (eps, delta). Laplace noise of scale 1/ε has variance 2/ε²; the
// Gaussian mechanism's per-query variance is σ².
func ExpectedRMSE(a kron.Linear, errF float64, queries int, eps, delta float64) float64 {
	if delta > 0 {
		return GaussianSigma(L2Sensitivity(a), eps, delta) * math.Sqrt(errF/float64(queries))
	}
	return math.Sqrt(2*errF/float64(queries)) / eps
}

// AnswerProduct evaluates one query product on a (possibly private)
// data-vector estimate: ans = weight·(W₁⊗···⊗W_d)·x̂, materializing only
// the small per-attribute matrices (pᵢ×nᵢ each). It is the one-product
// case of AnswerBatch, so a product answered alone and the same product
// answered in any batch cannot diverge.
func AnswerProduct(p workload.Product, x []float64) ([]float64, error) {
	out, err := answerBatch(context.Background(), []workload.Product{p}, x, 1, false)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func scaleAnswer(ans []float64, w float64) {
	if w == 1 {
		return
	}
	for i := range ans {
		ans[i] *= w
	}
}

// AnswerBatch evaluates a batch of query products on one estimate,
// returning slot i = weight_i·(⊗W^(i))·x. Products are first grouped by
// their per-attribute predicate-set instances (the distinct factor sets of
// the batch); every other member of a group receives a weight-scaled copy
// of its representative's answer. The representatives are then evaluated
// as one suffix trie: the forward sweep contracts mode d-1 first, and
// level k of the trie holds the distinct (parent node, Terms[d-1-k]
// instance) pairs, so a trailing run of factors that several products
// share is contracted once. On the census schema every answer spec with
// age Total shares the first step, which shrinks the 500,480-cell x to
// 4,352 cells and costs more than all later steps together. A serving batch
// of 500 queries drawn from a handful of specs therefore streams x once,
// not once per spec.
//
// Slot i depends only on products[i] and is bit-identical to
// AnswerProduct(products[i], x) at any worker count: every trie node runs
// kron.ModeStep, the step the per-product sweep runs, on the same parent
// intermediate, the same factor values and the same shapes, and each
// output element of that step is one serial dot product whatever the
// sharding. Sharing keys on instance identity (== on the predicate set),
// so structurally equal but distinct instances are contracted separately,
// and a predicate set whose type is not comparable gets a node of its own.
func AnswerBatch(products []workload.Product, x []float64, workers int) ([][]float64, error) {
	return answerBatch(context.Background(), products, x, workers, false)
}

// AnswerBatchCtx is AnswerBatch with cancellation, tracing and a choice of
// copy or alias semantics. The trie is evaluated level by level, the nodes
// of a level concurrently on up to workers goroutines, and each node checks
// ctx before contracting, so a cancelled context — a disconnected HTTP
// client, a deadline — stops the batch after the steps in flight instead of
// burning CPU through the rest of the sweep. On cancellation the error
// satisfies errors.Is(err, ctx.Err()) and no partial result is returned.
// Any obs.Trace carried by ctx receives one StageAnswer observation. For an
// uncancellable background context the per-node check is a nil-channel
// select.
//
// shared = false gives every slot its own slice. shared = true is for
// read-only consumers: slots of products that are exact duplicates (same
// predicate-set instances AND the same weight) alias one answer slice
// instead of copying it, and callers must not mutate the returned slices.
// The serialization path of the HTTP daemon uses it — a batch of hundreds
// of repeated specs costs one sweep and zero copies.
func AnswerBatchCtx(ctx context.Context, products []workload.Product, x []float64, workers int, shared bool) ([][]float64, error) {
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	out, err := answerBatch(ctx, products, x, workers, shared)
	tr.Observe(obs.StageAnswer, time.Since(start))
	return out, err
}

func answerBatch(ctx context.Context, products []workload.Product, x []float64, workers int, shared bool) ([][]float64, error) {
	reps, members := groupByFactorSet(products)
	t := triePool.Get().(*suffixTrie)
	defer t.release()
	if err := t.build(products, reps, len(x)); err != nil {
		return nil, err
	}
	if err := t.eval(ctx, x, workers); err != nil {
		return nil, err
	}

	out := make([][]float64, len(products))
	for g, ans := range t.answers {
		rep := reps[g]
		repW := products[rep].Weight
		// Non-alias members copy the still-unweighted base before it is
		// scaled in place for the representative (and its aliases).
		for _, pi := range members[g] {
			if pi == rep || (shared && products[pi].Weight == repW) {
				continue
			}
			cp := append([]float64(nil), ans...)
			scaleAnswer(cp, products[pi].Weight)
			out[pi] = cp
		}
		scaleAnswer(ans, repW)
		for _, pi := range members[g] {
			if out[pi] == nil {
				out[pi] = ans
			}
		}
	}
	return out, nil
}

// groupByFactorSet partitions product indices into groups whose terms
// compare equal (==) on every attribute. reps[g] is the first batch index
// of group g (groups are ordered by first occurrence), members[g] all of
// its indices in batch order. For the pointer-typed built-in predicate
// sets == is instance identity; a comparable value-typed third-party
// implementation is grouped by value equality, which its == must therefore
// imply "same predicate matrix" for (true for any stateless value type).
// A predicate set whose dynamic type is not comparable gets a group of its
// own.
func groupByFactorSet(products []workload.Product) (reps []int, members [][]int) {
	ids := make(map[workload.PredicateSet]int, 8)
	groups := make(map[string]int, len(products))
	var key []byte
	for pi, p := range products {
		key = key[:0]
		grouped := true
		for _, t := range p.Terms {
			if !keyable(t) {
				grouped = false
				break
			}
			id, ok := ids[t]
			if !ok {
				id = len(ids)
				ids[t] = id
			}
			key = binary.AppendUvarint(key, uint64(id))
		}
		if !grouped {
			reps = append(reps, pi)
			members = append(members, []int{pi})
			continue
		}
		g, ok := groups[string(key)]
		if !ok {
			g = len(reps)
			groups[string(key)] = g
			reps = append(reps, pi)
			members = append(members, nil)
		}
		members[g] = append(members[g], pi)
	}
	return reps, members
}

// keyable reports whether t can key a map: the grouping and the trie share
// work only between predicate sets that compare equal under ==.
func keyable(t workload.PredicateSet) bool {
	return t != nil && reflect.TypeOf(t).Comparable()
}

// suffixTrie is the evaluation plan of one batch: the forward sweeps of its
// distinct factor sets, merged where they coincide. levels[k] holds one node
// per distinct (parent, term) pair for mode d-1-k, the parent being a node
// of levels[k-1] (x itself at level 0). Tries are pooled, so the node
// tables, the key index and the intermediate arenas are reused across
// batches; of the trie's memory, only the answers are allocated per batch.
type suffixTrie struct {
	levels  [][]trieNode
	index   map[trieKey]int32
	arena   [2][]float64 // intermediates of the even and the odd levels
	answers [][]float64  // answers[g] is group g's unweighted answer
}

type trieKey struct {
	level, parent int32
	term          workload.PredicateSet
}

// trieNode is one mode step: out = F·Zᵀ with F the term's matrix and Z the
// parent's output (see kron.ModeStep).
type trieNode struct {
	parent int32 // index in the previous level; unused at level 0
	term   workload.PredicateSet
	group  int32 // group whose answer this node computes, or -1
	size   int   // length of out
	out    []float64
	err    error // ctx.Err() if the node saw cancellation before starting
}

var triePool = sync.Pool{New: func() any {
	return &suffixTrie{index: make(map[trieKey]int32)}
}}

// build lays out the trie of the groups represented by reps, checks every
// representative against an estimate of the given length, and assigns each
// node its output: the group's fresh answer slice at a leaf, a slice of its
// level's arena otherwise. Levels k and k+2 share an arena, which is safe
// because level k+1 is the only reader of level k.
func (t *suffixTrie) build(products []workload.Product, reps []int, cells int) error {
	for g, r := range reps {
		terms := products[r].Terms
		if len(terms) == 0 {
			return fmt.Errorf("product %d has no terms", r)
		}
		cols := 1
		for i, term := range terms {
			if !term.CanMaterialize() {
				return fmt.Errorf("product %d: term %d (%s) too large to answer explicitly", r, i, term.Name())
			}
			cols *= term.Cols()
		}
		if cols != cells {
			return fmt.Errorf("product %d spans %d cells, the estimate has %d", r, cols, cells)
		}
		parent, size := int32(-1), cells
		for k := range terms {
			term := terms[len(terms)-1-k]
			size = size / term.Cols() * term.Rows()
			parent = t.node(k, parent, term, size)
		}
		t.levels[len(terms)-1][parent].group = int32(g)
	}

	t.answers = slices.Grow(t.answers[:0], len(reps))[:len(reps)]
	for k, lv := range t.levels {
		need := 0
		for _, n := range lv {
			if n.group < 0 {
				need += n.size
			}
		}
		if cap(t.arena[k&1]) < need {
			t.arena[k&1] = make([]float64, need)
		}
		arena := t.arena[k&1][:need]
		for i := range lv {
			n := &lv[i]
			if n.group >= 0 {
				n.out = make([]float64, n.size)
				t.answers[n.group] = n.out
				continue
			}
			n.out, arena = arena[:n.size:n.size], arena[n.size:]
		}
	}
	return nil
}

// node returns the index of the level-k node contracting term against
// parent's output, adding it if the batch has none yet. A term that cannot
// key a map always gets a new node.
func (t *suffixTrie) node(k int, parent int32, term workload.PredicateSet, size int) int32 {
	if len(t.levels) == k {
		// Revive a level released by an earlier batch, keeping its capacity.
		t.levels = slices.Grow(t.levels, 1)[:k+1]
	}
	share := keyable(term)
	key := trieKey{int32(k), parent, term}
	if share {
		if i, ok := t.index[key]; ok {
			return i
		}
	}
	i := int32(len(t.levels[k]))
	t.levels[k] = append(t.levels[k], trieNode{parent: parent, term: term, group: -1, size: size})
	if share {
		t.index[key] = i
	}
	return i
}

// eval runs the trie level by level on x, the nodes of a level concurrently.
// Each node checks ctx before contracting; if any saw cancellation the
// batch stops after that level.
func (t *suffixTrie) eval(ctx context.Context, x []float64, workers int) error {
	done := ctx.Done() // nil for Background: the select below never fires
	for k, lv := range t.levels {
		var prev []trieNode
		if k > 0 {
			prev = t.levels[k-1]
		}
		parallel.For(workers, len(lv), func(i int) {
			n := &lv[i]
			select {
			case <-done:
				n.err = ctx.Err()
				return
			default:
			}
			in := x
			if prev != nil {
				in = prev[n.parent].out
			}
			ws := kron.GetWorkspace()
			kron.ModeStep(n.out, n.term.Matrix(), in, ws)
			kron.PutWorkspace(ws)
		})
		for _, n := range lv {
			if n.err != nil {
				// Cancellation is the caller's own signal, not a batch
				// failure: return it bare so errors.Is(err, context.Canceled)
				// holds without unwrapping product decoration.
				return n.err
			}
		}
	}
	return nil
}

// release clears every reference the trie holds into this batch (its
// predicate sets and answers) and returns it to the pool.
func (t *suffixTrie) release() {
	for k := range t.levels {
		clear(t.levels[k])
		t.levels[k] = t.levels[k][:0]
	}
	t.levels = t.levels[:0]
	clear(t.index)
	clear(t.answers)
	t.answers = t.answers[:0]
	triePool.Put(t)
}

// AnswerWorkload evaluates all workload queries on a (possibly private)
// data-vector estimate: ans = W·x̂, using implicit Kronecker products per
// union term, shared across products with identical factor sets. Every
// predicate set must be materializable per attribute.
func AnswerWorkload(w *workload.Workload, x []float64) ([]float64, error) {
	parts, err := AnswerBatch(w.Products, x, 1)
	if err != nil {
		return nil, fmt.Errorf("mech: %w", err)
	}
	out := make([]float64, 0, w.NumQueries())
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// WorkloadQuadraticError returns the exact total squared error of answering
// every workload query on x+diff instead of x: Σ_q (w_q·diff)² = Σ_j wj²·
// diffᵀ·(⊗ᵢGᵢⱼ)·diff, evaluated with implicit Kronecker mat-vecs — O(N·d)
// per union term even when the workload has billions of queries. This is
// how the data-dependent baselines (PrivBayes) are scored on workloads too
// large to enumerate.
func WorkloadQuadraticError(w *workload.Workload, diff []float64) float64 {
	if len(diff) != w.Domain.Size() {
		panic("mech: diff length mismatch")
	}
	total := 0.0
	tmp := make([]float64, len(diff))
	for _, p := range w.Products {
		grams := make([]*mat.Dense, len(p.Terms))
		for i, t := range p.Terms {
			grams[i] = t.Gram()
		}
		op := kron.NewProduct(grams...)
		op.MatVec(tmp, diff)
		q := 0.0
		for i, v := range tmp {
			q += diff[i] * v
		}
		total += p.Weight * p.Weight * q
	}
	return total
}

// TotalSquaredError returns Σ (a[i]-b[i])² — the empirical counterpart of
// the expected total squared error metric.
func TotalSquaredError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mech: length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
