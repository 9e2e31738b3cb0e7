package server

import "testing"

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
