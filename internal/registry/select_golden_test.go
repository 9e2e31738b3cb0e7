package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mat"
)

// goldenCPHStrategySHA256 holds, per kernel backend, the sha256 of
// Encode(core.Select(...)) for census.CPHMarginalWorkload at Restarts 2,
// Seed 21. The selection-quality goldens in package core tolerate 1e-3 of
// drift; these pin every bit of the persisted strategy, so a kernel change
// that reorders a single float addition anywhere in selection fails here.
// A changed hash would also orphan every strategy already cached on disk
// under the old bytes. The two backends differ because the fast backend's
// dot-shaped kernels (MulNT among them) split each sum across lanes.
var goldenCPHStrategySHA256 = map[mat.Backend]string{
	mat.BackendReference: "3aca24088d60ba12831c74904203740324bded56f0f9d4cb0aa3b2a32fb2cf84",
	mat.BackendFast:      "a801649f8c86fb6bb9d4c732bc8bde7ce598f8a44ea1d49fa494d426eb71e6a4",
}

// TestSelectCPHBytesGolden runs the full Algorithm 2 selection on the CPH
// workload under each kernel backend at Workers 1 and 2 and compares the
// encoded strategy's hash with the golden. Under the race detector, which
// slows each selection to tens of seconds, it runs the one reference
// selection whose restarts run concurrently.
func TestSelectCPHBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full selections on the 500,480-cell CPH domain")
	}
	backends, workerCounts := []mat.Backend{mat.BackendReference, mat.BackendFast}, []int{1, 2}
	if raceEnabled {
		backends, workerCounts = backends[:1], workerCounts[1:]
	}
	w, err := census.CPHMarginalWorkload()
	if err != nil {
		t.Fatal(err)
	}
	prev := mat.KernelBackend()
	defer mat.SetKernelBackend(prev)
	for _, backend := range backends {
		mat.SetKernelBackend(backend)
		for _, workers := range workerCounts {
			sel, err := core.Select(w, core.HDMMOptions{Restarts: 2, Seed: 21, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := Encode(sel)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got, want := hex.EncodeToString(sum[:]), goldenCPHStrategySHA256[backend]; got != want {
				t.Errorf("%s workers=%d: %s strategy (err %g) encodes to sha256 %s, golden %s",
					backend, workers, sel.Operator, sel.Err, got, want)
			}
		}
	}
}
