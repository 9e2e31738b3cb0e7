// Stub of the measurement layer: the analyzer matches callees by
// package path and name, so signatures are simplified down to the
// noise source they thread.
package mech

import "math/rand/v2"

func Measure(x []float64, eps, delta float64, src *rand.PCG) []float64 { spend(); return x }
func Laplace(rng *rand.Rand, b float64) float64                        { spend(); return b }
func LaplaceVec(rng *rand.Rand, b float64, m int) []float64            { spend(); return nil }
func NoiseRNG(seed uint64) *rand.PCG                                   { return rand.NewPCG(seed, 0xd9e) }

// AnswerProduct is post-processing of an already-taken measurement: it
// spends nothing and must not be flagged.
func AnswerProduct(x []float64) []float64 { return x }

// spend stands in for the noise draw; in-package calls are the audited
// implementation of the mechanism and are exempt.
func spend() { Laplace(rand.New(NoiseRNG(1)), 1) }
