// Fixture for the shared wire codec: its bytes are persisted strategies
// and snapshots, so it is in the deterministic set.
package binfmt

import "math/rand/v2"

func padding() uint32 {
	return rand.Uint32() // want `rand\.Uint32 draws from the global math/rand state`
}
