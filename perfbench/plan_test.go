package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/mech"
	"repro/internal/workload"
)

func mustPlan(t *testing.T, wl string, seed uint64, ops int) *Plan {
	t.Helper()
	p, err := NewPlan(wl, seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, b := mustPlan(t, wl, 7, 40), mustPlan(t, wl, 7, 40)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed produced different op lists", wl)
		}
		if !reflect.DeepEqual(histogram(a.Setup.DataSeed), histogram(b.Setup.DataSeed)) {
			t.Errorf("%s: the same seed produced different histograms", wl)
		}
	}
}

func TestColdOptSeedsNeverCollide(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		p := mustPlan(t, wlCold, seed, 30)
		seen := map[uint64]bool{p.Setup.OptSeed: true}
		for i, r := range p.Regs {
			if seen[r.OptSeed] {
				t.Fatalf("seed %d: op %d reuses opt_seed %d", seed, i, r.OptSeed)
			}
			seen[r.OptSeed] = true
		}
	}
}

func TestWarmRegistrationsShareTheSetupStrategy(t *testing.T) {
	p := mustPlan(t, wlWarm, 3, 30)
	for i, r := range p.Regs {
		if r.OptSeed != p.Setup.OptSeed {
			t.Fatalf("op %d: opt_seed %d, set-up used %d", i, r.OptSeed, p.Setup.OptSeed)
		}
	}
}

// validatePlan checks the static gates every op list must pass.
func validatePlan(t *testing.T, p *Plan) {
	t.Helper()
	regs := append([]Registration{p.Setup}, p.Regs...)
	for i, r := range regs {
		if r.OptSeed == 0 || r.NoiseSeed == 0 || r.DataSeed == 0 {
			t.Errorf("%s: registration %d has a zero seed: %+v", p.Workload, i, r)
		}
		if !(r.Eps > 0) {
			t.Errorf("%s: registration %d has budget %v", p.Workload, i, r.Eps)
		}
	}
	counts := map[float64]int{}
	for _, r := range p.Regs {
		counts[r.Eps]++
	}
	for i, eps := range epsCycle {
		want := len(p.Regs) / len(epsCycle)
		if i < len(p.Regs)%len(epsCycle) {
			want++
		}
		if counts[eps] != want {
			t.Errorf("%s: budget %v drawn %d times, want %d", p.Workload, eps, counts[eps], want)
		}
	}
	sizes := cphSizes()
	for i, b := range append([]Batch{p.Probe}, p.Batches...) {
		if p.Workload != wlAnswer {
			break
		}
		distinct := map[string]int{}
		for _, q := range b.Queries {
			distinct[q]++
			if _, err := productRows(q, sizes); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if len(b.Queries) != len(answerClasses)*batchRepeats || len(distinct) != len(answerClasses) {
			t.Errorf("batch %d: %d products, %d distinct", i, len(b.Queries), len(distinct))
		}
		if b.RepeatOf >= 0 && !reflect.DeepEqual(b.Queries, p.Batches[b.RepeatOf].Queries) {
			t.Errorf("batch %d claims to repeat batch %d but differs", i, b.RepeatOf)
		}
	}
}

func TestHeldOutSeedDiffersAndPassesGates(t *testing.T) {
	const tuned, heldOut = 1, 977
	for _, wl := range workloadNames {
		a, b := mustPlan(t, wl, tuned, 40), mustPlan(t, wl, heldOut, 40)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds %d and %d produced the same op list", wl, tuned, heldOut)
		}
		validatePlan(t, a)
		validatePlan(t, b)
	}
}

// TestExactAnswersMatchTheKernels pins the benchmark's own evaluator to the
// system's answer path on the true histogram, where both must agree up to
// floating-point reassociation.
func TestExactAnswersMatchTheKernels(t *testing.T) {
	x := histogram(11)
	exact := newExactAnswers(x)
	qs := poolQueries()
	products, err := workload.ParseProducts(qs, cphSizes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mech.AnswerBatch(products, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := exact.answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(got[i]), len(want))
		}
		for k := range want {
			if math.Abs(got[i][k]-want[k]) > 1e-6*math.Max(1, math.Abs(want[k])) {
				t.Fatalf("%s row %d: kernels %v, exact %v", q, k, got[i][k], want[k])
			}
		}
	}
}

// TestHeldOutSeedPassesTheInProcessGates drives a short op list of a seed
// no bound was tuned on through the traced in-process path, whose gates
// mirror the daemon run's.
func TestHeldOutSeedPassesTheInProcessGates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several engines on the 500,480-cell CPH domain")
	}
	for _, tc := range []struct {
		wl  string
		ops int
	}{{wlCold, 1}, {wlWarm, 2}, {wlAnswer, 20}} {
		b := &bench{plan: mustPlan(t, tc.wl, 977, tc.ops), tmp: t.TempDir()}
		res, err := b.runTraced(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.wl, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d gate failures: %v", tc.wl, res.failed, res.gateErrs)
		}
		if _, wall := res.selfTimes(); !(wall > 0) {
			t.Errorf("%s: traced ops recorded no wall time", tc.wl)
		}
	}
}
