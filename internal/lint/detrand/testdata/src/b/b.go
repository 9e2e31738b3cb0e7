// Fixture for a package outside the deterministic set: global draws
// are its own business, but wall-clock/pid seeds are illegal
// everywhere — they fork the fixed-seed contract between runs in a way
// no caller can see.
package b

import (
	mrand "math/rand"
	"math/rand/v2"
	"os"
	"time"
)

// Not a deterministic package: global draws pass.
func jitter() float64 { return rand.Float64() }

// Seeds computed by local helpers pass here too (provenance rules only
// bind the deterministic packages).
func localSeed() *rand.Rand { return rand.New(rand.NewPCG(mix(1), 2)) }

func mix(s uint64) uint64 { return s }

// Wall-clock and pid seeds are flagged everywhere.
func clockSeed() *rand.Rand {
	return rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), 1)) // want `rand\.NewPCG seeded from time\.Now`
}

func pidSeed() mrand.Source {
	return mrand.NewSource(int64(os.Getpid())) // want `rand\.NewSource seeded from os\.Getpid`
}

func reseedGlobal() {
	mrand.Seed(time.Now().Unix()) // want `rand\.Seed seeded from time\.Now`
}
