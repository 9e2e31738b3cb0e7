package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// logInputs returns the Laplace sampler's log arguments t = 1 − 2|u|,
// u = Float64() − ½, with the edges of that domain: random draws, u near 0
// (t near 1) and near ±½ (t near 2⁻⁵², the smallest non-zero t), one value
// per binade from 2⁻⁵² to 1 (the power of two and a random fraction in
// it), and √½ with its neighbours in every binade, where the reduction's
// compare-and-mask switches.
func logInputs() []float64 {
	rng := rand.New(rand.NewPCG(27, 0x106))
	var xs []float64
	for range 1 << 16 {
		xs = append(xs, 1-2*math.Abs(rng.Float64()-0.5))
	}
	for k := 0; k < 64; k++ {
		d := float64(k) / (1 << 53)
		xs = append(xs, 1-2*d, 1-2*(0.5-d))
	}
	for e := -52; e <= 0; e++ {
		p := math.Ldexp(1, e)
		xs = append(xs, p, p*(1+rng.Float64()))
		h := math.Ldexp(math.Sqrt2/2, e+1)
		xs = append(xs, h, math.Nextafter(h, 0), math.Nextafter(h, 2))
	}
	return xs
}

// TestLogVecMatchesMathLog pins LogVec to math.Log bit for bit on the noise
// sampler's domain, at lengths 0–9 (every tail after the four-lane groups)
// and at every offset, out of place and in place. Values outside the
// four-lane kernel's domain (zero, subnormal, negative, NaN, ±Inf) are
// mixed into a window at every lane position: LogVec must hand them, and
// only their group, to math.Log.
func TestLogVecMatchesMathLog(t *testing.T) {
	xs := logInputs()
	check := func(what string, x []float64) {
		t.Helper()
		got := make([]float64, len(x))
		LogVec(got, x)
		inPlace := append([]float64(nil), x...)
		LogVec(inPlace, inPlace)
		for i, v := range x {
			want := math.Float64bits(math.Log(v))
			if g := math.Float64bits(got[i]); g != want {
				t.Fatalf("%s: log(%v) [%#x] = %#x, math.Log %#x", what, v, math.Float64bits(v), g, want)
			}
			if g := math.Float64bits(inPlace[i]); g != want {
				t.Fatalf("%s in place: log(%v) [%#x] = %#x, math.Log %#x", what, v, math.Float64bits(v), g, want)
			}
		}
	}
	check("all inputs", xs)
	for n := 0; n <= 9; n++ {
		for off := 0; off+n <= len(xs); off += 1 + 97*n {
			check(fmt.Sprintf("length %d at %d", n, off), xs[off:off+n])
		}
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, math.Nextafter(0x1p-1022, 0), -1,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 0x1p-1022}
	for n := 1; n <= 9; n++ {
		for _, sp := range specials {
			for at := 0; at < n; at++ {
				x := append([]float64(nil), xs[:n]...)
				x[at] = sp
				check(fmt.Sprintf("length %d with %v at %d", n, sp, at), x)
			}
		}
	}
}
