package a

import (
	"math/rand/v2"

	"repro/internal/mech"
)

func takeMeasurement(x []float64) []float64 {
	return mech.Measure(x, 1.0, 0, nil) // want `call to mech\.Measure spends privacy budget from unaudited site a\.takeMeasurement`
}

func drawNoise(rng *rand.Rand) float64 {
	v := mech.Laplace(rng, 0.5)         // want `call to mech\.Laplace spends privacy budget from unaudited site a\.drawNoise`
	vec := mech.LaplaceVec(rng, 0.5, 3) // want `call to mech\.LaplaceVec spends privacy budget`
	return v + vec[0]
}

func buildRNG() *rand.PCG {
	return mech.NoiseRNG(42) // want `call to mech\.NoiseRNG spends privacy budget from unaudited site a\.buildRNG`
}

type worker struct{}

// Methods are audited as "Type.Method"; closures attribute to the
// declaration that contains them — a goroutine spending budget is
// still its builder's spend.
func (w *worker) process(x []float64) {
	f := func() {
		mech.Measure(x, 1, 1e-6, nil) // want `unaudited site a\.worker\.process`
	}
	f()
}

// Post-processing of existing measurements spends nothing.
func answer(x []float64) []float64 {
	return mech.AnswerProduct(x)
}

// A reviewed exception carries its justification inline.
func calibrationProbe(x []float64) []float64 {
	//hdmmlint:allow epsilonspend fixture: deliberate spend documented for the directive test
	return mech.Measure(x, 1.0, 0, nil)
}
