// Package optimize implements the first-order numerical optimizers used by
// HDMM's strategy-selection routines: limited-memory BFGS for unconstrained
// problems and a projected variant for bound-constrained problems (the role
// scipy's L-BFGS-B plays in the paper's reference implementation).
package optimize

import (
	"fmt"
	"math"
	"os"
)

var optDebug = os.Getenv("OPTDEBUG") != ""

// Func evaluates the objective at x and, when grad is non-nil, writes the
// gradient into grad. It must not retain x or grad, nor write to x.
type Func func(x, grad []float64) float64

// Options controls the optimizers. The zero value selects usable defaults.
type Options struct {
	MaxIter int     // maximum outer iterations (default 500)
	Tol     float64 // relative improvement stopping tolerance (default 1e-8)
	GradTol float64 // infinity-norm gradient tolerance (default 1e-6)
	Memory  int     // number of (s,y) correction pairs (default 10)
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.Memory <= 0 {
		o.Memory = 10
	}
	return o
}

// Result reports the outcome of an optimization run.
type Result struct {
	X         []float64
	F         float64
	Iters     int
	Evals     int
	Converged bool
}

// Minimize runs unconstrained L-BFGS from x0.
func Minimize(f Func, x0 []float64, opts Options) Result {
	return minimize(f, x0, nil, nil, opts)
}

// MinimizeBox runs projected L-BFGS with element-wise lower and upper
// bounds (either may be nil for unbounded; use ±Inf entries for unbounded
// coordinates). The iterates always satisfy lb <= x <= ub.
func MinimizeBox(f Func, x0, lb, ub []float64, opts Options) Result {
	if lb != nil && len(lb) != len(x0) {
		panic("optimize: lower bound length mismatch")
	}
	if ub != nil && len(ub) != len(x0) {
		panic("optimize: upper bound length mismatch")
	}
	return minimize(f, x0, lb, ub, opts)
}

func project(x, lb, ub []float64) {
	if lb != nil {
		for i, b := range lb {
			if x[i] < b {
				x[i] = b
			}
		}
	}
	if ub != nil {
		for i, b := range ub {
			if x[i] > b {
				x[i] = b
			}
		}
	}
}

// projGradInfNorm returns the infinity norm of the projected gradient: for
// coordinates at a bound, gradient components pointing out of the feasible
// region do not count.
func projGradInfNorm(x, g, lb, ub []float64) float64 {
	mx := 0.0
	for i, gi := range g {
		if lb != nil && x[i] <= lb[i] && gi > 0 {
			continue
		}
		if ub != nil && x[i] >= ub[i] && gi < 0 {
			continue
		}
		if a := math.Abs(gi); a > mx {
			mx = a
		}
	}
	return mx
}

// trialPoint writes the projected trial point xNew = proj(x + step·d) and
// returns the displacement's first-order change Σ gᵢ·(xNewᵢ − xᵢ), summed
// in index order: one pass with the bits of the step, a project and a dot
// over the displacement run one after another.
func trialPoint(xNew, x, d, g, lb, ub []float64, step float64) float64 {
	xNew, d, g = xNew[:len(x)], d[:len(x)], g[:len(x)]
	desc := 0.0
	for i, xi := range x {
		v := xi + step*d[i]
		if lb != nil && v < lb[i] {
			v = lb[i]
		}
		if ub != nil && v > ub[i] {
			v = ub[i]
		}
		xNew[i] = v
		desc += g[i] * (v - xi)
	}
	return desc
}

func minimize(f Func, x0, lb, ub []float64, opts Options) Result {
	opts = opts.withDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	project(x, lb, ub)
	g := make([]float64, n)
	fx := f(x, g)
	evals := 1

	m := opts.Memory
	sList := make([][]float64, 0, m)
	yList := make([][]float64, 0, m)
	rho := make([]float64, 0, m)

	d := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	alphaBuf := make([]float64, m)

	res := Result{}
	smallSteps := 0 // consecutive iterations with tiny relative improvement
	for iter := 0; iter < opts.MaxIter; iter++ {
		if projGradInfNorm(x, g, lb, ub) <= opts.GradTol {
			res.Converged = true
			break
		}
		// Two-loop recursion for d = -H·g.
		copy(d, g)
		k := len(sList)
		for i := k - 1; i >= 0; i-- {
			a := rho[i] * dot(sList[i], d)
			alphaBuf[i] = a
			axpy(-a, yList[i], d)
		}
		if k > 0 {
			ys := dot(yList[k-1], sList[k-1])
			yy := dot(yList[k-1], yList[k-1])
			if yy > 0 {
				scal(ys/yy, d)
			}
		}
		for i := 0; i < k; i++ {
			b := rho[i] * dot(yList[i], d)
			axpy(alphaBuf[i]-b, sList[i], d)
		}
		neg(d)

		// Ensure descent; fall back to steepest descent otherwise.
		gd := dot(g, d)
		if gd >= 0 {
			for i := range d {
				d[i] = -g[i]
			}
			gd = dot(g, d)
			if gd >= 0 { // zero gradient
				res.Converged = true
				break
			}
		}
		if k == 0 {
			// No curvature information: normalize the raw gradient step so a
			// unit line-search step is a unit-norm move, as L-BFGS-B does.
			if nd := math.Sqrt(dot(d, d)); nd > 1 {
				scal(1/nd, d)
				gd /= nd
			}
		}

		// Backtracking Armijo line search along the projected path.
		const c1 = 1e-4
		step := 1.0
		var fNew float64
		ok := false
		backtracks := 0
		for ls := 0; ls < 50; ls++ {
			backtracks = ls
			// Armijo with the actual (projected) displacement; when the
			// projection bends the step so the linear model is useless,
			// accept any strict decrease.
			desc := trialPoint(xNew, x, d, g, lb, ub, step)
			fNew = f(xNew, nil) // gradient deferred to acceptance
			evals++
			if desc < 0 && fNew <= fx+c1*desc {
				ok = true
				break
			}
			if desc >= 0 && fNew < fx {
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			if optDebug {
				fmt.Printf("optdebug: iter %d line search failed (mem=%d) fx=%.12g gd=%.6g\n", iter, len(sList), fx, gd)
			}
			if len(sList) > 0 {
				// The quasi-Newton model misled us; drop it and retry the
				// iteration with a fresh steepest-descent step.
				sList = sList[:0]
				yList = yList[:0]
				rho = rho[:0]
				continue
			}
			// Steepest descent also failed: we are at a stationary point
			// up to line-search resolution.
			res.Converged = true
			break
		}

		// Gradient at the accepted point.
		fNew = f(xNew, gNew)
		evals++

		rel := (fx - fNew) / math.Max(1, math.Abs(fx))
		if optDebug {
			fmt.Printf("optdebug: iter %d accepted step=%.3g backtracks=%d fNew=%.12g rel=%.3g\n", iter, step, backtracks, fNew, rel)
		}
		if backtracks > 30 && len(sList) > 0 {
			// The quasi-Newton direction was so poor that only a microscopic
			// step survived: take the improvement but discard the model and
			// don't let this near-stall masquerade as convergence.
			copy(x, xNew)
			copy(g, gNew)
			fx = fNew
			sList = sList[:0]
			yList = yList[:0]
			rho = rho[:0]
			res.Iters = iter + 1
			continue
		}

		// Update L-BFGS memory.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := dot(s, y)
		if sy > 1e-12 {
			if len(sList) == m {
				sList = sList[1:]
				yList = yList[1:]
				rho = rho[1:]
			}
			sList = append(sList, s)
			yList = append(yList, y)
			rho = append(rho, 1/sy)
		}

		copy(x, xNew)
		copy(g, gNew)
		fx = fNew
		res.Iters = iter + 1
		if rel < opts.Tol {
			smallSteps++
			if smallSteps >= 3 {
				res.Converged = true
				break
			}
		} else {
			smallSteps = 0
		}
	}
	res.X = x
	res.F = fx
	res.Evals = evals
	return res
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

func scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

func neg(x []float64) {
	for i := range x {
		x[i] = -x[i]
	}
}

// CheckGradient compares the analytic gradient of f at x against central
// finite differences with step h and returns the maximum relative error.
// Intended for tests.
func CheckGradient(f Func, x []float64, h float64) float64 {
	n := len(x)
	g := make([]float64, n)
	f(x, g)
	xp := append([]float64(nil), x...)
	maxRel := 0.0
	for i := 0; i < n; i++ {
		orig := xp[i]
		xp[i] = orig + h
		fp := f(xp, nil)
		xp[i] = orig - h
		fm := f(xp, nil)
		xp[i] = orig
		fd := (fp - fm) / (2 * h)
		denom := math.Max(1e-8, math.Abs(fd)+math.Abs(g[i]))
		if rel := math.Abs(fd-g[i]) / denom; rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}
