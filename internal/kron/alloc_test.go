package kron

import (
	"math/rand/v2"
	"testing"
)

// TestApplicationsAreAllocationFree asserts the zero-allocation contract of
// the GEMM-backed application layer: once a workspace's buffers (and the
// stack's cached offsets) have grown to size, MatVecTo, MatTVecTo and the
// stacked forms perform no allocations at all. Run at
// Workers=1 — the serial paths are the contract; parallel fan-out spawns
// goroutines, whose bookkeeping is constant per application and covered by
// the solver-level O(1) test.
func TestApplicationsAreAllocationFree(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)

	rng := rand.New(rand.NewPCG(5, 6))
	p := NewProduct(randMat(rng, 9, 8), randMat(rng, 17, 16), randMat(rng, 6, 7))
	rows, cols := p.Dims()
	x := randVec(rng, cols)
	y := randVec(rng, rows)
	dst := make([]float64, rows)
	dstT := make([]float64, cols)
	ws := NewWorkspace()

	s := NewStack([]Linear{
		NewProduct(randMat(rng, 9, 8), randMat(rng, 33, 16)),
		NewProduct(randMat(rng, 4, 8), randMat(rng, 21, 16)),
	}, []float64{0.5, 1.5})
	srows, scols := s.Dims()
	sx := randVec(rng, scols)
	sy := randVec(rng, srows)
	sdst := make([]float64, srows)
	sdstT := make([]float64, scols)
	sws := NewWorkspace()

	// Warm caches: workspace buffers, stack offsets.
	p.MatVecTo(dst, x, ws)
	p.MatTVecTo(dstT, y, ws)
	s.MatVecTo(sdst, sx, sws)
	s.MatTVecTo(sdstT, sy, sws)

	cases := []struct {
		name string
		f    func()
	}{
		{"Product.MatVecTo", func() { p.MatVecTo(dst, x, ws) }},
		{"Product.MatTVecTo", func() { p.MatTVecTo(dstT, y, ws) }},
		{"Stack.MatVecTo", func() { s.MatVecTo(sdst, sx, sws) }},
		{"Stack.MatTVecTo", func() { s.MatTVecTo(sdstT, sy, sws) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(50, tc.f); allocs != 0 {
			t.Errorf("%s: %v allocs per application, want 0", tc.name, allocs)
		}
	}
}
