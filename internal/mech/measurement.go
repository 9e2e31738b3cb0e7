package mech

import "sync/atomic"

// measurementCounter counts private measurements taken by this process —
// every Measure call, each of which spends privacy budget. The recovery
// tests assert its delta is ZERO across a daemon restart: recovery that re-measured would silently double the spent ε,
// and no assertion on answer bytes alone can distinguish "reloaded y" from
// "drew fresh noise with the same seed".
var measurementCounter atomic.Int64

// MeasurementsTaken reports how many private measurements this process has
// performed since start.
func MeasurementsTaken() int64 { return measurementCounter.Load() }
