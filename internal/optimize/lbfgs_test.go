package optimize

import (
	"math"
	"math/rand/v2"
	"testing"
)

// quadratic returns f(x) = ½(x-c)ᵀD(x-c) with diagonal D.
func quadratic(c, d []float64) Func {
	return func(x, g []float64) float64 {
		f := 0.0
		for i := range x {
			r := x[i] - c[i]
			f += 0.5 * d[i] * r * r
			if g != nil {
				g[i] = d[i] * r
			}
		}
		return f
	}
}

func rosenbrock(x, g []float64) float64 {
	f := 0.0
	n := len(x)
	if g != nil {
		for i := range g {
			g[i] = 0
		}
	}
	for i := 0; i < n-1; i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		f += 100*a*a + b*b
		if g != nil {
			g[i] += -400*x[i]*a - 2*b
			g[i+1] += 200 * a
		}
	}
	return f
}

func TestMinimizeQuadratic(t *testing.T) {
	c := []float64{1, -2, 3, 0.5}
	d := []float64{1, 10, 100, 2}
	res := Minimize(quadratic(c, d), []float64{0, 0, 0, 0}, Options{})
	for i := range c {
		if math.Abs(res.X[i]-c[i]) > 1e-5 {
			t.Fatalf("x[%d] = %v want %v", i, res.X[i], c[i])
		}
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	x0 := []float64{-1.2, 1, -1.2, 1, 0}
	res := Minimize(rosenbrock, x0, Options{MaxIter: 5000, Tol: 1e-14})
	for i, v := range res.X {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("x[%d] = %v want 1 (f=%v iters=%d)", i, v, res.F, res.Iters)
		}
	}
}

func TestMinimizeBoundedActiveConstraint(t *testing.T) {
	// Unconstrained optimum at (-1, 2); lower bound 0 makes x*=(0,2).
	f := quadratic([]float64{-1, 2}, []float64{3, 5})
	lb := []float64{0, 0}
	res := MinimizeBox(f, []float64{5, 5}, lb, nil, Options{})
	if math.Abs(res.X[0]) > 1e-6 || math.Abs(res.X[1]-2) > 1e-5 {
		t.Fatalf("x = %v want (0, 2)", res.X)
	}
}

func TestMinimizeBoundedStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	n := 20
	c := make([]float64, n)
	d := make([]float64, n)
	lb := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64() * 3
		d[i] = 0.5 + rng.Float64()*10
		lb[i] = 0
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.Float64() * 2
	}
	// Track feasibility on every evaluation.
	base := quadratic(c, d)
	f := func(x, g []float64) float64 {
		for _, v := range x {
			if v < -1e-15 {
				t.Fatalf("infeasible iterate %v", v)
			}
		}
		return base(x, g)
	}
	res := MinimizeBox(f, x0, lb, nil, Options{Tol: 1e-14, GradTol: 1e-9})
	for i := range c {
		want := math.Max(0, c[i])
		if math.Abs(res.X[i]-want) > 1e-4 {
			t.Fatalf("x[%d] = %v want %v", i, res.X[i], want)
		}
	}
}

func TestCheckGradientDetectsCorrectAndWrong(t *testing.T) {
	good := quadratic([]float64{1, 2}, []float64{3, 4})
	if rel := CheckGradient(good, []float64{0.3, -0.7}, 1e-6); rel > 1e-5 {
		t.Fatalf("correct gradient flagged: rel=%v", rel)
	}
	bad := func(x, g []float64) float64 {
		v := good(x, g)
		if g != nil {
			g[0] *= 2 // wrong
		}
		return v
	}
	if rel := CheckGradient(bad, []float64{0.3, -0.7}, 1e-6); rel < 1e-2 {
		t.Fatalf("wrong gradient not flagged: rel=%v", rel)
	}
}

func TestMinimizeHandlesFlatStart(t *testing.T) {
	// Gradient is zero at the start: should return immediately, converged.
	f := quadratic([]float64{0, 0}, []float64{1, 1})
	res := Minimize(f, []float64{0, 0}, Options{})
	if !res.Converged || res.F != 0 {
		t.Fatalf("flat start: %+v", res)
	}
}

// TestTrialPointMatchesThreePass pins the line search's fused trial pass
// to the three passes it replaces (the step, project, and the descent dot
// over the projected displacement), bit for bit, with both bounds, with a
// lower bound only and with none.
func TestTrialPointMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 5))
	const n = 805
	x, d, g := make([]float64, n), make([]float64, n), make([]float64, n)
	lb, ub := make([]float64, n), make([]float64, n)
	for i := range x {
		lb[i] = float64(rng.IntN(3)) - 1
		ub[i] = lb[i] + 2*rng.Float64()
		x[i] = lb[i] + (ub[i]-lb[i])*rng.Float64()
		if rng.IntN(4) == 0 {
			x[i] = lb[i] // on the bound, as most of OPT₀'s Θ sits
		}
		d[i] = rng.NormFloat64() * 3
		g[i] = rng.NormFloat64()
	}
	for _, bounds := range []struct {
		name   string
		lb, ub []float64
	}{{"box", lb, ub}, {"lower", lb, nil}, {"none", nil, nil}} {
		for _, step := range []float64{1, 0.5, 1.0 / 1024, 3e-9} {
			want := make([]float64, n)
			for i := range want {
				want[i] = x[i] + step*d[i]
			}
			project(want, bounds.lb, bounds.ub)
			wantDesc := 0.0
			for i := range want {
				wantDesc += g[i] * (want[i] - x[i])
			}
			got := make([]float64, n)
			gotDesc := trialPoint(got, x, d, g, bounds.lb, bounds.ub, step)
			if math.Float64bits(gotDesc) != math.Float64bits(wantDesc) {
				t.Fatalf("%s, step %v: desc %v, three-pass %v", bounds.name, step, gotDesc, wantDesc)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, step %v: xNew[%d] = %v, three-pass %v", bounds.name, step, i, got[i], want[i])
				}
			}
		}
	}
}
