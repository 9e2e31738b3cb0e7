// Fixture mirroring a real allowlist entry: the site
// (repro/internal/serve, NewEngineCtx) is audited, so its measurement
// calls pass, while any other function in the same package does not.
package serve

import "repro/internal/mech"

func NewEngineCtx(x []float64, eps float64) []float64 {
	src := mech.NoiseRNG(7)
	return mech.Measure(x, eps, 0, src)
}

func sneakyRemeasure(x []float64, eps float64) []float64 {
	return mech.Measure(x, eps, 0, nil) // want `unaudited site repro/internal/serve\.sneakyRemeasure`
}
