package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
)

// goldenCPHStrategySHA256 is the sha256 of Encode(core.Select(...)) for
// census.CPHMarginalWorkload at Restarts 2, Seed 21. The selection-quality
// goldens in package core tolerate 1e-3 of drift; this pins every bit of
// the persisted strategy, so a kernel change that reorders a single float
// addition anywhere in selection fails here. A changed hash would also
// orphan every strategy already cached on disk under the old bytes.
const goldenCPHStrategySHA256 = "3aca24088d60ba12831c74904203740324bded56f0f9d4cb0aa3b2a32fb2cf84"

// TestSelectCPHBytesGolden runs the full Algorithm 2 selection on the CPH
// workload at Workers 1 and 2 and compares the encoded strategy's hash
// with the golden. Under the race detector, which slows each selection to
// tens of seconds, it runs only the selection whose restarts run
// concurrently.
func TestSelectCPHBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full selections on the 500,480-cell CPH domain")
	}
	workerCounts := []int{1, 2}
	if raceEnabled {
		workerCounts = workerCounts[1:]
	}
	w, err := census.CPHMarginalWorkload()
	if err != nil {
		t.Fatal(err)
	}
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
		if got := hex.EncodeToString(sum[:]); got != goldenCPHStrategySHA256 {
			t.Errorf("workers=%d: %s strategy (err %g) encodes to sha256 %s, golden %s",
				workers, sel.Operator, sel.Err, got, goldenCPHStrategySHA256)
		}
	}
}
