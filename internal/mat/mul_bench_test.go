package mat

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkGEMM times Mul, MulTN and MulNT serially on the shapes of the
// OPT₀ objective at p=7, n=115 (the age attribute of a CPH selection):
// U·Y and Θ·Q are 7×115 by 115×115, Θᵀ·(M⁻¹ΘQ) is 115×7 by 7×115, and
// V·Uᵀ is 7×115 by 115×7. Like OPT₀'s Θ in its line search, the 7×115
// operand is 80% exact zeros.
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 115))
	const p, n = 7, 115
	pn := randomDense(rng, p, n, 0.8)
	pn2 := randomDense(rng, p, n, 0)
	nn := randomDense(rng, n, n, 0)
	dpn, dnn, dpp := NewDense(p, n), NewDense(n, n), NewDense(p, p)
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	cases := []struct {
		name string
		run  func()
	}{
		{"Mul/7x115x115", func() { Mul(dpn, pn, nn) }},
		{"MulTN/115x7x115", func() { MulTN(dnn, pn, pn2) }},
		{"MulNT/7x115x7", func() { MulNT(dpp, pn2, pn) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
