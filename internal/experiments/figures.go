package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/kron"
	"repro/internal/marginals"
	"repro/internal/mat"
	"repro/internal/mech"
	"repro/internal/optimize"
	"repro/internal/schema"
	"repro/internal/workload"
)

// figTimeout is the per-algorithm budget for the scalability sweeps (the
// paper used 30 minutes; one core gets less).
func figTimeout(s Scale) time.Duration {
	switch s {
	case ScaleSmall:
		return 2 * time.Second
	case ScalePaper:
		return 120 * time.Second
	default:
		return 20 * time.Second
	}
}

// Fig1a reproduces Figure 1(a): strategy-selection runtime versus domain
// size on the Prefix 1D workload for the LRM comparator, GreedyH, and HDMM
// (OPT₀). Each algorithm is swept over doubling domains until it exceeds
// the time budget. DataCube is not applicable.
func Fig1a(s Scale) string {
	limit := figTimeout(s)
	maxN := map[Scale]int{ScaleSmall: 256, ScaleDefault: 2048, ScalePaper: 16384}[s]
	t := &table{header: []string{"N", "LRM", "GreedyH", "HDMM"}}
	lrmDead, ghDead, hdmmDead := false, false, false
	for n := 64; n <= maxN; n *= 4 {
		cells := []string{fmt.Sprint(n)}
		row := func(dead *bool, f func()) string {
			if *dead {
				return "timeout"
			}
			d := timed(f)
			if d > limit {
				*dead = true
			}
			return fmtDur(d)
		}
		// All three need the explicit Gram; beyond ~16k that alone is the
		// wall the paper describes for explicit-workload methods.
		if n > 8192 {
			t.add(append(cells, "timeout", "timeout", "timeout")...)
			break
		}
		y := workload.Prefix(n).Gram()
		nn := n
		// The LRM comparator is Θ(n³) per iteration: one iteration at 4096
		// already exceeds any sane budget, so it is gated up front (the
		// paper's LRM similarly stops near 10⁴).
		if n > 1024 {
			lrmDead = true
		}
		cells = append(cells, row(&lrmDead, func() {
			baseline.OPTGen(y, baseline.OPTGenOptions{Seed: 1, MaxIter: 20})
		}))
		cells = append(cells, row(&ghDead, func() { hier.GreedyH(y, nn) }))
		cells = append(cells, row(&hdmmDead, func() {
			p := nn / 16
			if p < 1 {
				p = 1
			}
			core.OPT0(y, core.OPT0Options{P: p, Restarts: 1, Seed: 3, MaxIter: 40})
		}))
		t.add(cells...)
		if lrmDead && ghDead && hdmmDead {
			break
		}
	}
	return "Figure 1(a): select runtime vs N, Prefix 1D (DataCube: N/A)\n" + t.String()
}

// Fig1b reproduces Figure 1(b): selection runtime on the Prefix 3D workload
// (P×P×P, N = n³) for the LRM comparator (explicit, N³ per iteration) and
// HDMM's OPT⊗ (three independent n-sized problems).
func Fig1b(s Scale) string {
	limit := figTimeout(s)
	t := &table{header: []string{"N", "LRM", "HDMM"}}
	lrmDead, hdmmDead := false, false
	for n := 4; n <= 4096; n *= 2 {
		total := n * n * n
		cells := []string{fmt.Sprintf("%d (=%d^3)", total, n)}
		if !lrmDead && total <= 4096 {
			// Materialize the explicit 3-D prefix Gram: kron of factors.
			y1 := workload.Prefix(n).Gram()
			y := kron.NewProduct(y1, y1, y1).Explicit()
			d := timed(func() { baseline.OPTGen(y, baseline.OPTGenOptions{Seed: 1, MaxIter: 10}) })
			if d > limit {
				lrmDead = true
			}
			cells = append(cells, fmtDur(d))
		} else {
			cells = append(cells, "timeout")
		}
		if !hdmmDead {
			dom := schema.Sizes(n, n, n)
			w := workload.MustNew(dom, workload.NewProduct(workload.Prefix(n), workload.Prefix(n), workload.Prefix(n)))
			d := timed(func() {
				if _, _, err := core.OPTKron(w, core.OPTKronOptions{Seed: 2}); err != nil {
					panic(err)
				}
			})
			if d > limit {
				hdmmDead = true
			}
			cells = append(cells, fmtDur(d))
		} else {
			cells = append(cells, "timeout")
		}
		t.add(cells...)
		if lrmDead && hdmmDead {
			break
		}
	}
	return "Figure 1(b): select runtime vs N = n³, Prefix 3D (GreedyH, DataCube: N/A)\n" + t.String()
}

// Fig1c reproduces Figure 1(c): selection runtime on the 3-way-marginals
// workload over an 8-dimensional domain (N = n⁸) for DataCube and HDMM
// (OPT_M). Both run on the subset lattice, so they scale far beyond
// explicit methods; LRM fails immediately (one point in the paper).
func Fig1c(s Scale) string {
	t := &table{header: []string{"N", "DataCube", "HDMM"}}
	maxN := map[Scale]int{ScaleSmall: 4, ScaleDefault: 10, ScalePaper: 14}[s]
	for n := 2; n <= maxN; n += 2 {
		sizes := make([]int, 8)
		for i := range sizes {
			sizes[i] = n
		}
		dom := schema.Sizes(sizes...)
		space := marginals.NewSpace(sizes)
		w := workload.KWayMarginals(dom, 3)
		subsets, weights, _ := baseline.MarginalWorkloadSubsets(w)
		dDC := timed(func() { baseline.DataCube(space, subsets, weights) })
		dHD := timed(func() {
			if _, _, err := core.OPTMarg(w, core.OPTMargOptions{Seed: 1}); err != nil {
				panic(err)
			}
		})
		t.add(fmt.Sprintf("%.3g (=%d^8)", math.Pow(float64(n), 8), n), fmtDur(dDC), fmtDur(dHD))
	}
	return "Figure 1(c): select runtime vs N = n⁸, 3-way marginals 8D (GreedyH: N/A; LRM infeasible)\n" + t.String()
}

// Fig1d reproduces Figure 1(d): measure+reconstruct runtime versus total
// domain size for strategies produced by OPT⊗, OPT⁺ and OPT_M.
func Fig1d(s Scale) string {
	maxN := map[Scale]int{ScaleSmall: 1 << 14, ScaleDefault: 1 << 21, ScalePaper: 1 << 24}[s]
	t := &table{header: []string{"N", "OPT⊗", "OPT+", "OPT_M"}}
	src := rand.NewPCG(7, 7)
	for n := 1 << 9; n <= maxN; n <<= 3 {
		// 3-D domain with side m = n^(1/3).
		m := int(math.Round(math.Cbrt(float64(n))))
		dom := schema.Sizes(m, m, m)
		total := m * m * m
		x := make([]float64, total)

		// OPT⊗ strategy on R×R×R.
		w := workload.MustNew(dom, workload.NewProduct(
			workload.AllRange(m), workload.AllRange(m), workload.AllRange(m)))
		ks, _, err := core.OPTKron(w, core.OPTKronOptions{Seed: 3, MaxIter: 20})
		if err != nil {
			panic(err)
		}
		dKron := timed(func() {
			ws := kron.NewWorkspace()
			y := mech.Measure(ks.Operator(), x, 1, 0, src, ws)
			if _, err := ks.Reconstruct(y, ws); err != nil {
				panic(err)
			}
		})

		// OPT⁺ strategy on (R×T×T) ∪ (T×R×R): reconstruct via the
		// certified two-part refinement.
		wu := workload.MustNew(dom,
			workload.NewProduct(workload.AllRange(m), workload.Total(m), workload.Total(m)),
			workload.NewProduct(workload.Total(m), workload.AllRange(m), workload.AllRange(m)),
		)
		us, _, err := core.OPTPlus(wu, core.OPTKronOptions{Seed: 4, MaxIter: 20})
		if err != nil {
			panic(err)
		}
		dPlus := timed(func() {
			ws := kron.NewWorkspace()
			y := mech.Measure(us.Operator(), x, 1, 0, src, ws)
			if _, err := us.Reconstruct(y, ws); err != nil {
				panic(err)
			}
		})

		// OPT_M strategy on 2-way marginals over a matched-size domain.
		wm := workload.KWayMarginals(dom, 2)
		msStrat, _, err := core.OPTMarg(wm, core.OPTMargOptions{Seed: 5})
		if err != nil {
			panic(err)
		}
		dMarg := timed(func() {
			ws := kron.NewWorkspace()
			y := mech.Measure(msStrat.Operator(), x, 1, 0, src, ws)
			if _, err := msStrat.Reconstruct(y, ws); err != nil {
				panic(err)
			}
		})

		t.add(fmt.Sprint(total), fmtDur(dKron), fmtDur(dPlus), fmtDur(dMarg))
	}
	return "Figure 1(d): measure+reconstruct runtime vs N\n" + t.String()
}

// Fig2 reproduces Figure 2: the error of OPT₀ on the all-range workload
// (n=256) as a function of the p hyper-parameter, relative to the best.
func Fig2(s Scale) string {
	n := 256
	restarts := map[Scale]int{ScaleSmall: 1, ScaleDefault: 3, ScalePaper: 10}[s]
	y := workload.AllRange(n).Gram()
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	errs := make([]float64, len(ps))
	best := math.Inf(1)
	for i, p := range ps {
		_, e := core.OPT0(y, core.OPT0Options{P: p, Restarts: restarts, Seed: uint64(p)})
		errs[i] = e
		if e < best {
			best = e
		}
	}
	t := &table{header: []string{"p", "relative error"}}
	for i, p := range ps {
		t.add(fmt.Sprint(p), fmt.Sprintf("%.2f", math.Sqrt(errs[i]/best)))
	}
	return "Figure 2: OPT₀ error vs p (all range queries, n=256)\n" + t.String()
}

// Fig3 reproduces Figure 3: the distribution of local minima across random
// restarts, for OPT₀ on range queries (n=256) and OPT_M on up-to-4-way
// marginals over 10⁸.
func Fig3(s Scale) string {
	restarts := map[Scale]int{ScaleSmall: 10, ScaleDefault: 50, ScalePaper: 100}[s]

	// OPT₀ / range queries.
	n := 256
	y := workload.AllRange(n).Gram()
	rangeErrs := make([]float64, restarts)
	for r := 0; r < restarts; r++ {
		_, e := core.OPT0(y, core.OPT0Options{P: 16, Restarts: 1, Seed: uint64(r)})
		rangeErrs[r] = e
	}

	// OPT_M / marginals.
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 10
	}
	dom := schema.Sizes(sizes...)
	wm := workload.UpToKWayMarginals(dom, 4)
	margErrs := make([]float64, restarts)
	for r := 0; r < restarts; r++ {
		_, e, err := core.OPTMarg(wm, core.OPTMargOptions{Restarts: 1, Seed: uint64(100 + r)})
		if err != nil {
			panic(err)
		}
		margErrs[r] = e
	}

	hist := func(errs []float64) string {
		sorted := append([]float64(nil), errs...)
		sort.Float64s(sorted)
		best := sorted[0]
		buckets := []float64{1.0, 1.05, 1.10, 1.15, 1.20, 1.25, math.Inf(1)}
		counts := make([]int, len(buckets))
		for _, e := range errs {
			rel := math.Sqrt(e / best)
			for bi, ub := range buckets {
				if rel <= ub || bi == len(buckets)-1 {
					counts[bi]++
					break
				}
			}
		}
		var parts []string
		labels := []string{"=1.00", "≤1.05", "≤1.10", "≤1.15", "≤1.20", "≤1.25", ">1.25"}
		for i, c := range counts {
			parts = append(parts, fmt.Sprintf("%s:%d", labels[i], c))
		}
		return strings.Join(parts, "  ")
	}
	return fmt.Sprintf("Figure 3: distribution of local minima over %d restarts (relative error buckets)\nRange queries (OPT₀):  %s\nMarginals (OPT_M):     %s\n",
		restarts, hist(rangeErrs), hist(margErrs))
}

// Fig4 reproduces Figure 4: the p=13 non-identity strategy rows chosen by
// OPT₀ for all range queries on n=256, as CSV series (row per line).
func Fig4(s Scale) string {
	n := 256
	restarts := map[Scale]int{ScaleSmall: 1, ScaleDefault: 5, ScalePaper: 25}[s]
	y := workload.AllRange(n).Gram()
	strat, _ := core.OPT0(y, core.OPT0Options{P: 13, Restarts: restarts, Seed: 4})
	a := strat.Matrix()
	var b strings.Builder
	b.WriteString("Figure 4: the 13 non-identity query rows of the OPT₀ strategy (all ranges, n=256)\n")
	b.WriteString("CSV, one row per query; columns are the 256 data-vector cells\n")
	for k := 0; k < 13; k++ {
		row := a.Row(n + k)
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig5 reproduces Figure 5: solution quality versus time for OPT₀ applied
// to the full 2-D all-range workload on a 64×64 domain, against OPT⊗'s
// decomposed optimization, with the Identity error as the reference line.
func Fig5(s Scale) string {
	n := map[Scale]int{ScaleSmall: 32, ScaleDefault: 64, ScalePaper: 64}[s]
	r1 := workload.AllRange(n).Gram()
	// Explicit 2-D Gram for OPT₀: (R⊗R)ᵀ(R⊗R) = RᵀR ⊗ RᵀR.
	y2d := kron.NewProduct(r1, r1).Explicit()
	idErr := mat.Trace(y2d)

	// Trajectory of OPT₀ via an instrumented objective.
	type point struct {
		t time.Duration
		f float64
	}
	var traj []point
	p := n * n / 16
	obj := core.NewOpt0ObjectiveForTrace(y2d, p)
	start := time.Now()
	best := math.Inf(1)
	wrapped := func(x, g []float64) float64 {
		v := obj(x, g)
		if v < best {
			best = v
			traj = append(traj, point{time.Since(start), v})
		}
		return v
	}
	rng := rand.New(rand.NewPCG(11, 11))
	x0 := make([]float64, p*n*n)
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	maxIter := map[Scale]int{ScaleSmall: 10, ScaleDefault: 60, ScalePaper: 200}[s]
	optimize.MinimizeBox(wrapped, x0, make([]float64, len(x0)), nil, optimize.Options{MaxIter: maxIter})

	// OPT⊗ for the same workload: two decoupled 1-D problems.
	dom := schema.Sizes(n, n)
	w := workload.MustNew(dom, workload.NewProduct(workload.AllRange(n), workload.AllRange(n)))
	var eKron float64
	dKron := timed(func() {
		_, e, err := core.OPTKron(w, core.OPTKronOptions{Seed: 12})
		if err != nil {
			panic(err)
		}
		eKron = e
	})

	var b strings.Builder
	b.WriteString(fmt.Sprintf("Figure 5: solution quality vs time, OPT₀ vs OPT⊗ (all 2-D ranges, %d×%d)\n", n, n))
	fmt.Fprintf(&b, "Identity error: %.4g\n", idErr)
	fmt.Fprintf(&b, "OPT⊗: error %.4g after %s\n", eKron, fmtDur(dKron))
	b.WriteString("OPT₀ trajectory (time, error):\n")
	step := len(traj)/12 + 1
	for i := 0; i < len(traj); i += step {
		fmt.Fprintf(&b, "  %8s  %.4g\n", fmtDur(traj[i].t), traj[i].f)
	}
	if len(traj) > 0 {
		last := traj[len(traj)-1]
		fmt.Fprintf(&b, "  %8s  %.4g (final)\n", fmtDur(last.t), last.f)
	}
	return b.String()
}

// Fig6 reproduces Figure 6: OPT₀ runtime versus domain size (left) and
// OPT_M runtime versus dimensionality (right).
func Fig6(s Scale) string {
	maxN := map[Scale]int{ScaleSmall: 512, ScaleDefault: 2048, ScalePaper: 8192}[s]
	maxD := map[Scale]int{ScaleSmall: 8, ScaleDefault: 12, ScalePaper: 14}[s]

	t1 := &table{header: []string{"N", "OPT₀ time"}}
	for n := 128; n <= maxN; n *= 2 {
		y := workload.AllRange(n).Gram()
		nn := n
		d := timed(func() { hdmm1D(y, nn, 1, 9) })
		t1.add(fmt.Sprint(n), fmtDur(d))
	}
	t2 := &table{header: []string{"d", "OPT_M time"}}
	for d := 2; d <= maxD; d += 2 {
		sizes := make([]int, d)
		for i := range sizes {
			sizes[i] = 10
		}
		dom := schema.Sizes(sizes...)
		k := 3
		if d < 3 {
			k = d
		}
		w := workload.KWayMarginals(dom, k)
		dt := timed(func() {
			if _, _, err := core.OPTMarg(w, core.OPTMargOptions{Seed: 6}); err != nil {
				panic(err)
			}
		})
		t2.add(fmt.Sprint(d), fmtDur(dt))
	}
	return "Figure 6: OPT₀ time vs N (left), OPT_M time vs d (right)\n" + t1.String() + "\n" + t2.String()
}
