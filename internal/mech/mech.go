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
// the small per-attribute matrices (pᵢ×nᵢ each). Both the one-shot
// pipeline (AnswerWorkload) and the serving engine answer through this
// evaluation, so their results cannot diverge.
func AnswerProduct(p workload.Product, x []float64) ([]float64, error) {
	ans, err := answerUnweighted(p, x)
	if err != nil {
		return nil, err
	}
	scaleAnswer(ans, p.Weight)
	return ans, nil
}

// answerUnweighted evaluates (W₁⊗···⊗W_d)·x̂ without the product weight.
func answerUnweighted(p workload.Product, x []float64) ([]float64, error) {
	ms := make([]*mat.Dense, len(p.Terms))
	for i, t := range p.Terms {
		if !t.CanMaterialize() {
			return nil, fmt.Errorf("term %d (%s) too large to answer explicitly", i, t.Name())
		}
		ms[i] = t.Matrix()
	}
	op := kron.NewProduct(ms...)
	rows, _ := op.Dims()
	ans := make([]float64, rows)
	op.MatVec(ans, x)
	return ans, nil
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
// returning slot i = weight_i·(⊗W^(i))·x. Products are grouped by their
// per-attribute predicate-set instances — the distinct (attr, spec) factor
// sets of the batch — and each distinct factor set is contracted against x
// exactly once; every other member of its group receives a weight-scaled
// copy. A serving batch of 500 queries drawn from a handful of specs (the
// spec parser shares predicate-set instances across identical specs) costs
// a handful of GEMM sweeps instead of 500. Slot i depends only on
// products[i] and is bit-identical to AnswerProduct(products[i], x) at any
// worker count; grouping keys on instance identity, so structurally equal
// but distinct instances are simply evaluated separately.
func AnswerBatch(products []workload.Product, x []float64, workers int) ([][]float64, error) {
	return answerBatch(context.Background(), products, x, workers, false)
}

// AnswerBatchCtx is AnswerBatch with cancellation, tracing and a choice of
// copy or alias semantics. Each contraction group checks ctx before
// evaluating, so a cancelled context — a disconnected HTTP client, a
// deadline — stops the batch after the group in flight instead of burning
// CPU through hundreds of remaining GEMM sweeps. On cancellation the error
// satisfies errors.Is(err, ctx.Err()). Any obs.Trace carried by ctx receives
// one StageAnswer observation. For an uncancellable background context the
// per-group check is a nil-channel select.
//
// shared = false gives every slot its own slice. shared = true is for
// read-only consumers: slots of products that are exact duplicates (same
// predicate-set instances AND the same weight) alias one answer slice
// instead of copying it, and callers must not mutate the returned slices.
// The serialization path of the HTTP daemon uses it — a batch of hundreds
// of repeated specs costs one contraction and zero copies.
func AnswerBatchCtx(ctx context.Context, products []workload.Product, x []float64, workers int, shared bool) ([][]float64, error) {
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	out, err := answerBatch(ctx, products, x, workers, shared)
	tr.Observe(obs.StageAnswer, time.Since(start))
	return out, err
}

func answerBatch(ctx context.Context, products []workload.Product, x []float64, workers int, shared bool) ([][]float64, error) {
	reps, members := groupByFactorSet(products)

	type slot struct {
		ans []float64
		err error
	}
	done := ctx.Done() // nil for Background: the select below never fires
	base := parallel.Map(workers, len(reps), func(g int) slot {
		select {
		case <-done:
			return slot{nil, ctx.Err()}
		default:
		}
		ans, err := answerUnweighted(products[reps[g]], x)
		return slot{ans, err}
	})

	out := make([][]float64, len(products))
	for g, sl := range base {
		if sl.err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && sl.err == ctxErr {
				// Cancellation is the caller's own signal, not a batch
				// failure: return it bare so errors.Is(err, context.Canceled)
				// holds without unwrapping product decoration.
				return nil, ctxErr
			}
			return nil, fmt.Errorf("product %d: %w", reps[g], sl.err)
		}
		rep := reps[g]
		repW := products[rep].Weight
		// Non-alias members copy the still-unweighted base before it is
		// scaled in place for the representative (and its aliases).
		for _, pi := range members[g] {
			if pi == rep || (shared && products[pi].Weight == repW) {
				continue
			}
			cp := append([]float64(nil), sl.ans...)
			scaleAnswer(cp, products[pi].Weight)
			out[pi] = cp
		}
		scaleAnswer(sl.ans, repW)
		for _, pi := range members[g] {
			if out[pi] == nil {
				out[pi] = sl.ans
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
			if t == nil || !reflect.TypeOf(t).Comparable() {
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
