package detrand_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/detrand"
)

// TestDeterministicPackage: global math/rand draws, the v1 import, and
// unblessed seed derivations are flagged inside the deterministic set;
// explicit seeds, DeriveSeed chains, owned-generator methods and a
// justified //hdmmlint:allow pass.
func TestDeterministicPackage(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "repro/internal/core")
}

// TestOutsidePackages: wall-clock/pid seeds are flagged in every
// package; global draws and local seed helpers are not.
func TestOutsidePackages(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "b")
}

// TestWireCodecIsDeterministic: the shared HDMMSTRG/HDMMSNAP wire codec
// is bound by the same contract as the formats built on it.
func TestWireCodecIsDeterministic(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, "repro/internal/binfmt")
}
