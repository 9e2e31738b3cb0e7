//go:build race

package core

// raceEnabled reports whether this binary was built with the race detector,
// which slows a full CPH selection by an order of magnitude.
const raceEnabled = true
