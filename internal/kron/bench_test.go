package kron

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mat"
)

// BenchmarkKmatvec measures Algorithm 1 on a 3-factor product covering a
// 64³ = 262144-cell domain.
func BenchmarkKmatvec(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	f := make([]*mat.Dense, 3)
	for i := range f {
		f[i] = mat.NewDense(68, 64)
		d := f[i].Data()
		for j := range d {
			d[j] = rng.Float64()
		}
	}
	p := NewProduct(f...)
	rows, cols := p.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.Float64()
	}
	dst := make([]float64, rows)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatVec(dst, x, ws)
	}
}

// BenchmarkKmatTvec measures the transposed product.
func BenchmarkKmatTvec(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	f := make([]*mat.Dense, 3)
	for i := range f {
		f[i] = mat.NewDense(68, 64)
		d := f[i].Data()
		for j := range d {
			d[j] = rng.Float64()
		}
	}
	p := NewProduct(f...)
	rows, cols := p.Dims()
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.Float64()
	}
	dst := make([]float64, cols)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatTVec(dst, y, ws)
	}
}
