package kron

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

// opaque hides an operator's WorkspaceApplier implementation so ColScaled's
// plain-Linear fallback path is exercised.
type opaque struct{ Linear }

// TestColScaled pins the diagonal right-scaling composite against the
// explicit matrix Inner·diag(scale), for a workspace-applying inner (Stack)
// and an opaque inner that forces the plain MatVec/MatTVec fallback; the
// two paths must agree bit for bit.
func TestColScaled(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	a := NewProduct(randMat(rng, 4, 5), randMat(rng, 3, 4))
	b := NewProduct(randMat(rng, 2, 5), randMat(rng, 5, 4))
	stack := NewStack([]Linear{a, b}, []float64{0.6, 0.4})
	rows, cols := stack.Dims()
	scale := make([]float64, cols)
	for i := range scale {
		scale[i] = 0.1 + rng.Float64()
	}
	ex := mat.VStack(a.Explicit().Scale(0.6), b.Explicit().Scale(0.4))
	for j := 0; j < cols; j++ {
		for i := 0; i < ex.Rows(); i++ {
			ex.Set(i, j, ex.At(i, j)*scale[j])
		}
	}

	ws := NewWorkspace()
	for _, workers := range []int{1, 4} {
		prev := SetWorkers(workers)
		for trial := 0; trial < 3; trial++ {
			x := randVec(rng, cols)
			y := randVec(rng, rows)
			want := mat.MatVec(nil, ex, x)
			wantT := mat.MatTVec(nil, ex, y)
			var fwd, bwd [2][]float64
			for i, inner := range []Linear{stack, opaque{stack}} {
				cs := NewColScaled(inner, scale)
				fwd[i] = make([]float64, rows)
				cs.MatVecTo(fwd[i], x, ws)
				bwd[i] = make([]float64, cols)
				cs.MatTVecTo(bwd[i], y, ws)
			}
			for j := range want {
				if fwd[0][j] != fwd[1][j] {
					t.Fatalf("workers=%d: MatVecTo elem %d = %v, fallback = %v", workers, j, fwd[0][j], fwd[1][j])
				}
				if math.Abs(fwd[0][j]-want[j]) > 1e-9 {
					t.Fatalf("workers=%d: MatVecTo elem %d = %v, explicit = %v", workers, j, fwd[0][j], want[j])
				}
			}
			for j := range wantT {
				if bwd[0][j] != bwd[1][j] {
					t.Fatalf("workers=%d: MatTVecTo elem %d = %v, fallback = %v", workers, j, bwd[0][j], bwd[1][j])
				}
				if math.Abs(bwd[0][j]-wantT[j]) > 1e-9 {
					t.Fatalf("workers=%d: MatTVecTo elem %d = %v, explicit = %v", workers, j, bwd[0][j], wantT[j])
				}
			}
		}
		SetWorkers(prev)
	}
}
