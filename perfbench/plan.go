package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/census"
)

// Workload names, as passed to --workload.
const (
	wlCold   = "register-cold"
	wlWarm   = "register-warm"
	wlAnswer = "answer"
)

var workloadNames = []string{wlCold, wlWarm, wlAnswer}

// registeredQueries is the workload every tenant registers: twelve
// marginal-style products over the CPH person schema (hispanic, sex, race,
// relationship, age), written in the daemon's spec grammar. SF1's own
// predicate sets are explicit matrices that the HTTP API cannot carry.
var registeredQueries = []string{
	"T,T,T,T,T", "I,T,T,T,T", "T,I,T,T,T", "T,T,I,T,T",
	"T,T,T,I,T", "T,T,T,T,I", "T,I,T,T,P", "I,I,T,T,T",
	"T,T,I,I,T", "I,T,T,T,R", "T,I,T,I,T", "T,T,T,I,W5",
}

// restarts is the selection restart count of every registration: one per
// core of the 2-core machines the bounds were set on. It is part of the
// strategy key, so warm registrations must repeat it.
const restarts = 2

// epsCycle is the multiset of budgets the timed registrations draw from, in
// fixed proportions, so the mean expected RMSE of a run does not depend on
// which seed shuffled them.
var epsCycle = []float64{0.5, 1, 2}

// answerClasses is the answer workload's query pool, one class per cost
// band (rows per product). Every batch draws one spec from each class, so
// every batch has the same number of distinct specs and about the same
// cost. Each spec is a linear function of one marginal the registered
// workload asks for ({hispanic, sex}, {sex, relationship} or {race,
// relationship}), so the strategy answers it without bias. Age stays
// Total: any other age term charges at least 500,480 values against the
// daemon's default per-request answer budget.
var answerClasses = [][]string{
	{"T,T,T,T,T", "I,T,T,T,T", "T,I,T,T,T", "I,I,T,T,T", "R,P,T,T,T"},
	{"T,T,T,I,T", "T,T,T,P,T", "T,T,T,W4,T", "T,T,T,W2,T"},
	{"T,T,I,T,T", "T,T,P,T,T", "T,T,W8,T,T", "T,T,W4,T,T"},
	{"T,I,T,I,T", "T,P,T,P,T", "T,R,T,W2,T", "T,I,T,W4,T"},
	{"T,T,W32,W8,T", "T,T,W16,W8,T", "T,T,W32,I,T", "T,T,W48,P,T"},
	{"T,T,I,I,T", "T,T,P,I,T", "T,T,I,P,T", "T,T,W8,W2,T"},
}

// batchRepeats is how often each distinct spec appears in one batch.
const batchRepeats = 3

// repeatEvery makes every repeatEvery-th answer op resend an earlier batch
// verbatim, for the byte-identity gate.
const (
	repeatEvery = 10
	repeatLag   = 5
)

// opsPerSecond converts --seconds into a fixed op count per workload. The
// rates are nominal costs on a 2-core machine; a run's work never depends
// on the clock, so the parent and a change do identical work.
var opsPerSecond = map[string]float64{
	wlCold:   0.5,
	wlWarm:   0.9,
	wlAnswer: 150,
}

// records is the number of synthetic people behind each histogram.
const records = 200_000

// Registration is one tenant registration. Every seed is non-zero: seed 0
// asks the daemon for crypto/rand noise, which would make the RMSE metrics
// unrepeatable.
type Registration struct {
	OptSeed   uint64
	NoiseSeed uint64
	DataSeed  uint64
	Eps       float64
}

// Batch is one answer request.
type Batch struct {
	Queries  []string
	RepeatOf int // index of the earlier batch this one resends, or -1
}

// Plan is everything one run does, as a pure function of the workload, the
// seed and the op count.
type Plan struct {
	Workload string
	Seed     uint64
	Setup    Registration   // warm-up registration: the registered workload or the answer tenant
	Regs     []Registration // timed registrations (register-cold, register-warm)
	Probe    Batch          // untimed answer batch sent during set-up (answer)
	Batches  []Batch        // timed answer batches (answer)
}

// Ops is the number of timed operations.
func (p *Plan) Ops() int { return len(p.Regs) + len(p.Batches) }

// opCount is the fixed op count for a workload at --seconds.
func opCount(workload string, seconds int) int {
	return int(math.Ceil(float64(seconds) * opsPerSecond[workload]))
}

// planStream separates the plan's random stream from the histograms'.
const (
	planStream = 0x706c616e // "plan"
	dataStream = 0x64617461 // "data"
)

// NewPlan generates the op list of one run.
func NewPlan(workload string, seed uint64, ops int) (*Plan, error) {
	if _, ok := opsPerSecond[workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if ops < 1 {
		return nil, fmt.Errorf("op count must be positive, got %d", ops)
	}
	rng := rand.New(rand.NewPCG(seed, planStream))
	nonZero := func() uint64 {
		for {
			if v := rng.Uint64(); v != 0 {
				return v
			}
		}
	}
	p := &Plan{Workload: workload, Seed: seed}
	p.Setup = Registration{OptSeed: nonZero(), NoiseSeed: nonZero(), DataSeed: nonZero(), Eps: 1}
	switch workload {
	case wlCold, wlWarm:
		used := map[uint64]bool{p.Setup.OptSeed: true}
		eps := epsSequence(rng, ops)
		p.Regs = make([]Registration, ops)
		for i := range p.Regs {
			r := Registration{OptSeed: p.Setup.OptSeed, NoiseSeed: nonZero(), DataSeed: nonZero(), Eps: eps[i]}
			if workload == wlCold {
				r.OptSeed = nonZero()
				for used[r.OptSeed] {
					r.OptSeed = nonZero()
				}
				used[r.OptSeed] = true
			}
			p.Regs[i] = r
		}
	case wlAnswer:
		p.Probe = drawBatch(rng)
		p.Batches = make([]Batch, ops)
		for i := range p.Batches {
			if i%repeatEvery == repeatEvery-1 && i >= repeatLag {
				src := p.Batches[i-repeatLag]
				p.Batches[i] = Batch{Queries: append([]string(nil), src.Queries...), RepeatOf: i - repeatLag}
				continue
			}
			p.Batches[i] = drawBatch(rng)
		}
	}
	return p, nil
}

// epsSequence returns n budgets cycling through epsCycle, shuffled.
func epsSequence(rng *rand.Rand, n int) []float64 {
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = epsCycle[i%len(epsCycle)]
	}
	rng.Shuffle(n, func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
	return eps
}

// drawBatch picks one spec per cost class and repeats each batchRepeats
// times in shuffled order.
func drawBatch(rng *rand.Rand) Batch {
	qs := make([]string, 0, len(answerClasses)*batchRepeats)
	for _, class := range answerClasses {
		spec := class[rng.IntN(len(class))]
		for k := 0; k < batchRepeats; k++ {
			qs = append(qs, spec)
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return Batch{Queries: qs, RepeatOf: -1}
}

// cphSizes are the attribute sizes of census.CPHDomain(false).
func cphSizes() []int { return census.CPHDomain(false).AttrSizes() }

// histogram is the synthetic person histogram for a data seed: a skewed,
// correlated population over the CPH cells, flattened in the domain's
// index order.
func histogram(seed uint64) []float64 {
	dom := census.CPHDomain(false)
	rng := rand.New(rand.NewPCG(seed, dataStream))
	x := make([]float64, dom.Size())
	raceWeights := []float64{0.62, 0.13, 0.06, 0.01, 0.05, 0.09}
	relWeights := []float64{0.38, 0.18, 0.22, 0.03, 0.02, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01, 0.02, 0.01, 0.02, 0.02, 0.01, 0.01}
	tuple := make([]int, 5)
	for i := 0; i < records; i++ {
		tuple[0] = bernoulli(rng, 0.19)
		tuple[1] = bernoulli(rng, 0.5)
		if rng.Float64() < 0.04 {
			tuple[2] = 1<<pick(rng, raceWeights) | 1<<pick(rng, raceWeights) // may collapse to one race
		} else {
			tuple[2] = 1 << pick(rng, raceWeights)
		}
		tuple[3] = pick(rng, relWeights)
		age := int(rng.NormFloat64()*22 + 38)
		if tuple[3] == 2 { // children skew young
			age = rng.IntN(25)
		}
		tuple[4] = min(max(age, 0), 114)
		x[dom.Index(tuple)]++
	}
	return x
}

func bernoulli(rng *rand.Rand, p float64) int {
	if rng.Float64() < p {
		return 1
	}
	return 0
}

// pick draws an index with probability proportional to weights.
func pick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// specIntervals expands one per-attribute spec into its predicate rows,
// each an interval [lo, hi], in the row order of internal/workload's
// predicate sets.
func specIntervals(spec string, n int) ([][2]int, error) {
	var out [][2]int
	switch {
	case spec == "I":
		for i := 0; i < n; i++ {
			out = append(out, [2]int{i, i})
		}
	case spec == "T":
		out = append(out, [2]int{0, n - 1})
	case spec == "P":
		for i := 0; i < n; i++ {
			out = append(out, [2]int{0, i})
		}
	case spec == "R":
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
	case strings.HasPrefix(spec, "W"):
		k, err := strconv.Atoi(spec[1:])
		if err != nil || k < 1 || k > n {
			return nil, fmt.Errorf("bad width spec %q for size %d", spec, n)
		}
		for s := 0; s+k <= n; s++ {
			out = append(out, [2]int{s, s + k - 1})
		}
	default:
		return nil, fmt.Errorf("unknown spec %q", spec)
	}
	return out, nil
}

// productRows is the row count of a product spec over sizes.
func productRows(q string, sizes []int) (int, error) {
	specs := strings.Split(q, ",")
	if len(specs) != len(sizes) {
		return 0, fmt.Errorf("spec %q has %d terms, domain has %d attributes", q, len(specs), len(sizes))
	}
	rows := 1
	for a, s := range specs {
		iv, err := specIntervals(s, sizes[a])
		if err != nil {
			return 0, err
		}
		rows *= len(iv)
	}
	return rows, nil
}

// exactAnswers evaluates answer-pool specs on the true histogram with the
// benchmark's own arithmetic (4-D prefix sums over the age marginal), not
// the system's kernels. Every pool spec has age Total.
type exactAnswers struct {
	sizes [4]int
	cum   []float64 // (n0+1)·(n1+1)·(n2+1)·(n3+1) inclusive prefix sums
}

func newExactAnswers(x []float64) *exactAnswers {
	dom := census.CPHDomain(false)
	sz := dom.AttrSizes()
	e := &exactAnswers{sizes: [4]int{sz[0], sz[1], sz[2], sz[3]}}
	d1, d2, d3 := sz[1]+1, sz[2]+1, sz[3]+1
	e.cum = make([]float64, (sz[0]+1)*d1*d2*d3)
	at := func(a, b, c, d int) int { return ((a*d1+b)*d2+c)*d3 + d }
	tuple := make([]int, len(sz))
	for i, v := range x {
		if v == 0 {
			continue
		}
		dom.Tuple(i, tuple)
		e.cum[at(tuple[0]+1, tuple[1]+1, tuple[2]+1, tuple[3]+1)] += v
	}
	// Prefix-sum along each axis in turn.
	for a := 1; a <= sz[0]; a++ {
		for b := 0; b < d1; b++ {
			for c := 0; c < d2; c++ {
				for d := 0; d < d3; d++ {
					e.cum[at(a, b, c, d)] += e.cum[at(a-1, b, c, d)]
				}
			}
		}
	}
	for a := 0; a <= sz[0]; a++ {
		for b := 1; b < d1; b++ {
			for c := 0; c < d2; c++ {
				for d := 0; d < d3; d++ {
					e.cum[at(a, b, c, d)] += e.cum[at(a, b-1, c, d)]
				}
			}
		}
	}
	for a := 0; a <= sz[0]; a++ {
		for b := 0; b < d1; b++ {
			for c := 1; c < d2; c++ {
				for d := 0; d < d3; d++ {
					e.cum[at(a, b, c, d)] += e.cum[at(a, b, c-1, d)]
				}
			}
		}
	}
	for a := 0; a <= sz[0]; a++ {
		for b := 0; b < d1; b++ {
			for c := 0; c < d2; c++ {
				for d := 1; d < d3; d++ {
					e.cum[at(a, b, c, d)] += e.cum[at(a, b, c, d-1)]
				}
			}
		}
	}
	return e
}

// boxSum is the histogram mass in the box lo..hi (inclusive) over the first
// four attributes, summed over every age.
func (e *exactAnswers) boxSum(box [4][2]int) float64 {
	d1, d2, d3 := e.sizes[1]+1, e.sizes[2]+1, e.sizes[3]+1
	sum := 0.0
	for corner := 0; corner < 16; corner++ {
		idx := [4]int{}
		sign := 1.0
		for k := 0; k < 4; k++ {
			if corner&(1<<k) != 0 {
				idx[k] = box[k][0] // exclusive lower edge in prefix coordinates
				sign = -sign
			} else {
				idx[k] = box[k][1] + 1
			}
		}
		sum += sign * e.cum[((idx[0]*d1+idx[1])*d2+idx[2])*d3+idx[3]]
	}
	return sum
}

// answer evaluates one pool spec in the product's row-major order.
func (e *exactAnswers) answer(q string) ([]float64, error) {
	specs := strings.Split(q, ",")
	if len(specs) != 5 || specs[4] != "T" {
		return nil, fmt.Errorf("pool spec %q must span five attributes with age Total", q)
	}
	var rows [4][][2]int
	n := 1
	for a := 0; a < 4; a++ {
		iv, err := specIntervals(specs[a], e.sizes[a])
		if err != nil {
			return nil, err
		}
		rows[a] = iv
		n *= len(iv)
	}
	out := make([]float64, 0, n)
	for _, r0 := range rows[0] {
		for _, r1 := range rows[1] {
			for _, r2 := range rows[2] {
				for _, r3 := range rows[3] {
					out = append(out, e.boxSum([4][2]int{r0, r1, r2, r3}))
				}
			}
		}
	}
	return out, nil
}
