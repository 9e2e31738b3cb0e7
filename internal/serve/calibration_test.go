package serve_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	hdmm "repro"
	"repro/internal/core"
	"repro/internal/kron"
	"repro/internal/mat"
	"repro/internal/mech"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// calibrationTrials is the number of noise seeds per calibration cell.
const calibrationTrials = 2000

// calibrationZ is the width, in standard errors, of every two-sided bound
// below. Under the normal approximation a single bound fails by chance
// with probability 5.7e-7, so the per-query bias bounds of one cell (86
// queries) fail together with probability below 5e-5 (union bound); the
// seeds are fixed, so the outcome is deterministic either way.
const calibrationZ = 5.0

// TestCalibrationOPTPlus is the OPT⁺ row of the calibration matrix: a
// two-part union on the pencil path, measured with Laplace and Gaussian
// noise, answered by a fresh engine and by the engine recovered from its
// snapshot (Encode → Decode → Restore).
//
// Each cell runs calibrationTrials noise seeds over one data vector and
// checks, per query q, the error e_q = answer_q − (W·x)_q:
//
//   - bias: the mean of e_q over seeds is within calibrationZ standard
//     errors of zero, with the standard error taken from the exact
//     per-query variance σ²·(W·(AᵀA)⁻¹·Wᵀ)_qq of least-squares
//     reconstruction;
//   - MSE: the mean of e_q² over seeds and queries is within calibrationZ
//     empirical standard errors (of the per-seed means) of the exact
//     least-squares MSE σ²·tr(W·(AᵀA)⁻¹·Wᵀ)/Q, and at most expected_rmse²
//     plus the same margin.
//
// The reported expected_rmse is an upper bound for a union, not the exact
// MSE: it prices group g as answered from block g alone (Σ Err_g/β_g²),
// while reconstruction solves the joint least-squares problem over both
// blocks, which can only do better. The exact MSE is therefore computed
// here from the explicit stacked strategy (96 cells).
func TestCalibrationOPTPlus(t *testing.T) {
	dom := hdmm.NewDomain(
		hdmm.Attribute{Name: "a", Size: 8},
		hdmm.Attribute{Name: "b", Size: 12},
	)
	w, err := hdmm.NewWorkload(dom,
		hdmm.NewProduct(hdmm.Prefix(8), hdmm.Total(12)),
		hdmm.NewProduct(hdmm.Total(8), hdmm.AllRange(12)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(61, 62))
	x := make([]float64, dom.Size())
	for i := range x {
		x[i] = float64(rng.IntN(40))
	}
	truth, err := mech.AnswerWorkload(w, x)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 7, SkipKron: true, SkipMarg: true}

	// Per-query variance factor (W·(AᵀA)⁻¹·Wᵀ)_qq of the exact
	// least-squares estimate, from the explicit stacked strategy.
	rec, _, err := reg.GetOrCompute(registry.Key(w, sel), func() (*registry.Record, error) {
		return core.Select(w, sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	us, ok := rec.Strategy.(*core.UnionStrategy)
	if !ok || len(us.Parts) != 2 {
		t.Fatalf("selection chose %s (%T), want a two-part OPT+ union", rec.Operator, rec.Strategy)
	}
	varFactor := lsVarianceFactors(t, us, w)

	queries := []string{"P,T", "T,R"}
	for _, mc := range []struct {
		name       string
		eps, delta float64
	}{
		{"laplace", 1.0, 0},
		{"gaussian", 0.5, 1e-6},
	} {
		var sigma float64
		if mc.delta > 0 {
			sigma = mech.GaussianSigma(mech.L2Sensitivity(us.Operator(), kron.NewWorkspace()), mc.eps, mc.delta)
		} else {
			sigma = math.Sqrt2 * us.Operator().Sensitivity() / mc.eps
		}
		for _, recovered := range []bool{false, true} {
			name := fmt.Sprintf("%s/fresh", mc.name)
			if recovered {
				name = fmt.Sprintf("%s/recovered", mc.name)
			}
			t.Run(name, func(t *testing.T) {
				nq := len(truth)
				sum := make([]float64, nq) // Σ_seeds e_q
				perSeed := make([]float64, calibrationTrials)
				var expected float64
				for s := range perSeed {
					eng, err := serve.NewEngineCtx(t.Context(), w, x, mc.eps, serve.Options{
						Selection: sel,
						Delta:     mc.delta,
						Seed:      uint64(1000 + s),
						Registry:  reg,
					})
					if err != nil {
						t.Fatal(err)
					}
					if si := eng.SolveInfo(); si == nil || !si.Preconditioned {
						t.Fatalf("engine did not run the preconditioned union solve: %+v", si)
					}
					if recovered {
						eng = recoverEngine(t, eng, queries)
					}
					expected = eng.ExpectedRMSE()
					got, err := answerWorkload(t, eng, w)
					if err != nil {
						t.Fatal(err)
					}
					sq := 0.0
					for q, v := range got {
						e := v - truth[q]
						sum[q] += e
						sq += e * e
					}
					perSeed[s] = sq / float64(nq)
				}

				for q := range sum {
					mean := sum[q] / calibrationTrials
					se := sigma * math.Sqrt(varFactor[q]/calibrationTrials)
					if math.Abs(mean) > calibrationZ*se {
						t.Errorf("query %d: mean error %.4g over %d seeds, bound %.4g (%.0f standard errors)",
							q, mean, calibrationTrials, calibrationZ*se, calibrationZ)
					}
				}

				mse, seMSE := meanAndStdErr(perSeed)
				exact := 0.0
				for _, v := range varFactor {
					exact += v
				}
				exact *= sigma * sigma / float64(nq)
				margin := calibrationZ * seMSE
				if math.Abs(mse-exact) > margin {
					t.Errorf("per-query MSE %.6g, exact least-squares MSE %.6g, bound ±%.3g", mse, exact, margin)
				}
				if mse > expected*expected+margin {
					t.Errorf("per-query MSE %.6g exceeds expected_rmse² %.6g by more than %.3g", mse, expected*expected, margin)
				}
			})
		}
	}
}

// recoverEngine round-trips an engine through its durable snapshot.
func recoverEngine(t *testing.T, eng *serve.Engine, queries []string) *serve.Engine {
	t.Helper()
	blob, err := snapshot.Encode(eng.Snapshot("calibration", queries))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	out, err := serve.Restore(sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// lsVarianceFactors returns diag(W·(AᵀA)⁻¹·Wᵀ) for the explicit stacked
// union A, in workload query order.
func lsVarianceFactors(t *testing.T, us *core.UnionStrategy, w *workload.Workload) []float64 {
	t.Helper()
	stack := us.Operator().(*kron.Stack)
	blocks := make([]*mat.Dense, len(stack.Blocks))
	for g, b := range stack.Blocks {
		blocks[g] = b.(*kron.Product).Explicit().Scale(us.Shares[g])
	}
	a := mat.VStack(blocks...)
	ch, err := mat.NewCholesky(mat.Gram(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	wm := w.ExplicitMatrix()
	gw := ch.SolveMat(wm.T()) // (AᵀA)⁻¹·Wᵀ
	nq, n := wm.Dims()
	out := make([]float64, nq)
	for q := 0; q < nq; q++ {
		v := 0.0
		for j := 0; j < n; j++ {
			v += wm.At(q, j) * gw.At(j, q)
		}
		out[q] = v
	}
	return out
}

// meanAndStdErr returns the sample mean and its standard error.
func meanAndStdErr(v []float64) (mean, se float64) {
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	ss := 0.0
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(v)-1) / float64(len(v)))
}
