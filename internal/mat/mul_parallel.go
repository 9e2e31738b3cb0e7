package mat

import (
	"repro/internal/parallel"
)

// SetWorkers sets the process-wide kernel worker bound used by Mul/MulTN/
// MulNT above the size threshold and returns the previous setting. It is the
// same knob package kron and lsmr consult (parallel.SetKernelWorkers), so
// one call throttles the whole numeric pipeline. n <= 0 restores the default
// (GOMAXPROCS(0)).
func SetWorkers(n int) int { return parallel.SetKernelWorkers(n) }

// MulWorkers reports the resolved worker count the multiply kernels will use.
func MulWorkers() int { return parallel.KernelWorkers() }

const (
	// parallelFlops is the multiply-add count above which the kernels shard
	// across cores; below it goroutine fan-out costs more than it saves.
	parallelFlops = 1 << 18
	// kBlock is the k-panel size of the Mul/MulTN kernel: a panel of B
	// (kBlock × n floats) stays resident in L2 while a shard's rows stream
	// over it.
	kBlock = 256
)

// shardRows splits r output rows into contiguous chunks of at least enough
// rows to amortize a goroutine, then runs kernel on each chunk in parallel.
// Every output element is written by exactly one chunk and each chunk
// accumulates over k in the same increasing order as the serial kernels, so
// the result is bit-identical to the serial path for any worker count.
func shardRows(workers, r, flopsPerRow int, kernel func(lo, hi int)) {
	minRows := 1
	if flopsPerRow > 0 {
		minRows = parallelFlops / flopsPerRow
		if minRows < 1 {
			minRows = 1
		}
	}
	parallel.ForChunked(workers, r, minRows, kernel)
}
