package kron

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

// TestColScaled pins the diagonal right-scaling composite over a Stack
// against the explicit matrix Inner·diag(scale), at Workers 1 and 4.
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
			cs := NewColScaled(stack, scale)
			fwd := make([]float64, rows)
			cs.MatVec(fwd, x, ws)
			bwd := make([]float64, cols)
			cs.MatTVec(bwd, y, ws)
			for j := range want {
				if math.Abs(fwd[j]-want[j]) > 1e-9 {
					t.Fatalf("workers=%d: MatVec elem %d = %v, explicit = %v", workers, j, fwd[j], want[j])
				}
			}
			for j := range wantT {
				if math.Abs(bwd[j]-wantT[j]) > 1e-9 {
					t.Fatalf("workers=%d: MatTVec elem %d = %v, explicit = %v", workers, j, bwd[j], wantT[j])
				}
			}
		}
		SetWorkers(prev)
	}
}
