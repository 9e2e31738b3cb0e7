package server

import (
	"math"
	"testing"
)

// TestEngineKeyGolden pins the engine key for a fixed secret, ε, δ, seed
// and data vector to the hex every earlier release computed, so snapshots
// already on disk keep recovering onto the same pool keys.
func TestEngineKeyGolden(t *testing.T) {
	s := &Server{}
	s.secret = [32]byte{1, 2, 3}
	x := []float64{1, 2, 3, 4}
	const want = "eb37be1a492183419eba44a533972f88ad4f7b3e528f67f2772990deca00e7ed"
	if got := s.engineKey("strategy-key", 0.5, 1e-6, 42, x); got != want {
		t.Fatalf("engineKey = %s, golden %s", got, want)
	}
}

// TestEngineKeyGoldenChunked pins the key of a 10,001-cell vector — longer
// than one hashing block, with a -0 cell that must hash as +0 — to the hex
// the per-cell hashing loop computed before cells were hashed in blocks.
func TestEngineKeyGoldenChunked(t *testing.T) {
	s := &Server{}
	s.secret = [32]byte{9, 8, 7, 6, 5}
	x := make([]float64, 10001)
	for i := range x {
		x[i] = float64((i*37)%101) * 0.25
	}
	x[1023] = math.Copysign(0, -1)
	x[1024] = 1e-300
	x[10000] = -3.5
	const want = "50e56db14e23f2d6a4d22e65cb8a8bdd2c44f5717beb2abd4ade184fcde96bd9"
	if got := s.engineKey("strategy-key-10001", 2, 0, 7, x); got != want {
		t.Fatalf("engineKey = %s, golden %s", got, want)
	}
	x[1023] = 0
	if got := s.engineKey("strategy-key-10001", 2, 0, 7, x); got != want {
		t.Fatalf("engineKey with +0 = %s, want the -0 key %s", got, want)
	}
}
