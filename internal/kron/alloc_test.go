package kron

import (
	"math/rand/v2"
	"testing"
)

// TestApplicationsAreAllocationFree asserts the zero-allocation contract of
// the GEMM-backed application layer: once a workspace's buffers (and the
// stack's cached offsets) have grown to size, MatVec and MatTVec perform no
// allocations at all on a Product, a Stack, a Sum and a ColScaled over a
// Stack (the pencil preconditioner's shape). Run at Workers=1 — the serial
// paths are the contract; parallel fan-out spawns goroutines, whose
// bookkeeping is constant per application and covered by the solver-level
// O(1) test.
func TestApplicationsAreAllocationFree(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)

	rng := rand.New(rand.NewPCG(5, 6))
	p := NewProduct(randMat(rng, 9, 8), randMat(rng, 17, 16), randMat(rng, 6, 7))
	s := NewStack([]Linear{
		NewProduct(randMat(rng, 9, 8), randMat(rng, 33, 16)),
		NewProduct(randMat(rng, 4, 8), randMat(rng, 21, 16)),
	}, []float64{0.5, 1.5})
	sum := NewSum([]Linear{
		NewProduct(randMat(rng, 8, 8), randMat(rng, 16, 16)),
		NewProduct(randMat(rng, 8, 8), randMat(rng, 16, 16)),
	}, []float64{0.25, 0.75})
	_, scols := s.Dims()
	cs := NewColScaled(s, randVec(rng, scols))

	for _, op := range []struct {
		name string
		a    Linear
	}{{"Product", p}, {"Stack", s}, {"Sum", sum}, {"ColScaled", cs}} {
		rows, cols := op.a.Dims()
		x := randVec(rng, cols)
		y := randVec(rng, rows)
		dst := make([]float64, rows)
		dstT := make([]float64, cols)
		ws := NewWorkspace()
		// Warm caches: workspace buffers, stack offsets.
		op.a.MatVec(dst, x, ws)
		op.a.MatTVec(dstT, y, ws)
		if allocs := testing.AllocsPerRun(50, func() { op.a.MatVec(dst, x, ws) }); allocs != 0 {
			t.Errorf("%s.MatVec: %v allocs per application, want 0", op.name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { op.a.MatTVec(dstT, y, ws) }); allocs != 0 {
			t.Errorf("%s.MatTVec: %v allocs per application, want 0", op.name, allocs)
		}
	}
}

// TestSweepAllocatesBuffersOnce: a fresh workspace's first application
// grows each ping-pong buffer once, to the sweep's largest intermediate,
// so the adjoint sweep after it (and the forward sweep after an adjoint)
// reuses the same backing arrays.
func TestSweepAllocatesBuffersOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	// Expanding factors: the intermediates grow at every forward step, so
	// a buffer grown step by step would be reallocated.
	p := NewProduct(randMat(rng, 3, 2), randMat(rng, 5, 4), randMat(rng, 9, 6), randMat(rng, 7, 5), randMat(rng, 4, 3))
	rows, cols := p.Dims()
	longest := 2 * 5 * 9 * 7 * 4 // ∏_{j<1} cols_j · ∏_{j≥1} rows_j
	for _, forwardFirst := range []bool{true, false} {
		ws := NewWorkspace()
		apply := func(forward bool) {
			if forward {
				p.MatVec(make([]float64, rows), randVec(rng, cols), ws)
			} else {
				p.MatTVec(make([]float64, cols), randVec(rng, rows), ws)
			}
		}
		apply(forwardFirst)
		first := [2]*float64{&ws.bufs[0][:1][0], &ws.bufs[1][:1][0]}
		for i, b := range ws.bufs {
			if cap(b) != longest {
				t.Errorf("forward first %v: buffer %d has capacity %d, want %d", forwardFirst, i, cap(b), longest)
			}
		}
		apply(!forwardFirst)
		for i, b := range ws.bufs {
			if &b[:1][0] != first[i] {
				t.Errorf("forward first %v: buffer %d reallocated by the other sweep", forwardFirst, i)
			}
		}
	}
}
