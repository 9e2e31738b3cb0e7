package mech

import (
	"fmt"
	"math"

	"repro/internal/kron"
	"repro/internal/mat"
)

// The paper's techniques extend to (ε,δ)-differential privacy via the
// Gaussian mechanism with noise calibrated to the L2 sensitivity ‖A‖₂ (the
// approximate-DP Matrix Mechanism of Li et al. that Section 3.5 points to).
// This file provides that variant's calibration: strategy optimization is
// unchanged (squared-error objectives are the same up to the noise
// constant), only the noise Measure draws differs.

// L2Sensitivity returns the maximum column L2 norm of an operator — the L2
// sensitivity of its query set. An operator with an L2Sensitivity method
// (OPT_M's weighted marginals, the identity) reports its own closed form.
// Otherwise it is exact for dense matrices and Kronecker products (column
// norms multiply); for stacks it returns the safe upper bound
// sqrt(Σ wᵢ²·‖Aᵢ‖₂²), which over-protects, never under-protects; any other
// operator is probed one column at a time, a full application each, with
// its scratch drawn from ws.
func L2Sensitivity(a kron.Linear, ws *kron.Workspace) float64 {
	if op, ok := a.(interface{ L2Sensitivity() float64 }); ok {
		return op.L2Sensitivity()
	}
	switch op := a.(type) {
	case kron.Dense:
		return maxColL2(op.M)
	case *kron.Product:
		s := 1.0
		for _, f := range op.Factors {
			s *= maxColL2(f)
		}
		return s
	case *kron.Stack:
		total := 0.0
		for i, b := range op.Blocks {
			w := 1.0
			if op.Weights != nil {
				w = op.Weights[i]
			}
			l2 := L2Sensitivity(b, ws)
			total += w * w * l2 * l2
		}
		return math.Sqrt(total)
	default:
		// Generic fallback: probe every column with basis vectors.
		rows, cols := a.Dims()
		x := make([]float64, cols)
		y := make([]float64, rows)
		mx := 0.0
		for j := 0; j < cols; j++ {
			x[j] = 1
			a.MatVec(y, x, ws)
			x[j] = 0
			s := 0.0
			for _, v := range y {
				s += v * v
			}
			if s > mx {
				mx = s
			}
		}
		return math.Sqrt(mx)
	}
}

func maxColL2(m *mat.Dense) float64 {
	r, c := m.Dims()
	sums := make([]float64, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v * v
		}
	}
	mx := 0.0
	for _, v := range sums {
		if v > mx {
			mx = v
		}
	}
	return math.Sqrt(mx)
}

// GaussianSigma returns the noise scale of the classic Gaussian mechanism
// bound σ = Δ₂·sqrt(2·ln(1.25/δ))/ε. The bound's proof (Dwork & Roth,
// Theorem A.1) holds only for ε ≤ 1; for ε > 1 this σ does NOT provide
// (ε,δ)-DP — it is an unsound under-calibration, not a conservative one —
// so ε > 1 is rejected outright rather than silently under-protecting.
// (Balle & Wang's analytic Gaussian mechanism calibrates the full ε range;
// adopting it is the upgrade path if high-ε Gaussian runs are ever needed.)
func GaussianSigma(l2Sens, eps, delta float64) float64 {
	if eps <= 0 || eps > 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("mech: invalid (ε,δ) = (%v,%v): Gaussian calibration requires 0 < ε ≤ 1 and 0 < δ < 1", eps, delta))
	}
	return l2Sens * math.Sqrt(2*math.Log(1.25/delta)) / eps
}
