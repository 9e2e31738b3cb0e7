package mech

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// The noise source is math/rand/v2's PCG: a 128-bit linear congruential
// generator s ← s·pcgMul + pcgInc (mod 2¹²⁸) whose outputs are a fixed
// mixing of the state after each step. The multiplier and increment are
// the constants of math/rand/v2's pcg.go (the PCG reference's 128-bit
// defaults); TestPCGJumpMatchesDraws pins them against the library.
var (
	pcgMul = u128{hi: 2549297995355413924, lo: 4865540595714422341}
	pcgInc = u128{hi: 6364136223846793005, lo: 1442695040888963407}
)

// u128 is an unsigned 128-bit integer; arithmetic on it wraps mod 2¹²⁸.
type u128 struct{ hi, lo uint64 }

func (a u128) mul(b u128) u128 {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return u128{hi: hi + a.hi*b.lo + a.lo*b.hi, lo: lo}
}

func (a u128) add(b u128) u128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, c)
	return u128{hi: hi, lo: lo}
}

// pcgStateOf reads a PCG's raw state, the (seed1, seed2) pair that
// rand.PCG.Seed would restore it from.
func pcgStateOf(p *rand.PCG) u128 {
	var buf [20]byte
	b, _ := p.AppendBinary(buf[:0]) // "pcg:" then hi and lo, big-endian
	return u128{hi: binary.BigEndian.Uint64(b[4:]), lo: binary.BigEndian.Uint64(b[12:])}
}

// pcgJump returns the state a PCG at state s reaches after k draws, in
// O(log k) steps: the k-step map s ↦ Mᵏ·s + (Mᵏ⁻¹ + ··· + 1)·C is built
// by squaring the one-step map (mul, inc) and composing the squares the
// bits of k select (F. Brown, "Random number generation with arbitrary
// strides", 1994).
func pcgJump(s u128, k uint64) u128 {
	accMul, accAdd := u128{lo: 1}, u128{}
	mul, inc := pcgMul, pcgInc
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			accMul = accMul.mul(mul)
			accAdd = accAdd.mul(mul).add(inc)
		}
		inc = mul.add(u128{lo: 1}).mul(inc)
		mul = mul.mul(mul)
	}
	return accMul.mul(s).add(accAdd)
}
