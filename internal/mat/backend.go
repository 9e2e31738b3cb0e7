package mat

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend selects the arithmetic regime of the numeric kernels.
//
// BackendReference defines every output element as one serial
// accumulation chain, in the exact order the original scalar kernels
// used (zero skips included). It is the bit-identity oracle —
// strategies, measurements and snapshots produced under it are
// byte-identical to every release since the kernels were written, on
// every architecture. Its kernels are register-tiled, and where SIMD
// lanes are used each lane is a separate output element, so the chain
// and its bits survive. A kernel built that way is as fast as the fast
// backend's would be, so it runs under both backends: Mul, MulTN
// (axpyRows) and ContractTN have one implementation each.
//
// BackendFast computes the same contractions with eight independent
// accumulator lanes and a fixed reduction tree (see dotFast). Splitting
// a dot product across lanes reorders the float additions, so fast
// results differ from reference at the ULP level — which is why the
// backend is part of the determinism contract: it is a process-wide
// knob set once at startup, fast results are run-to-run and
// cross-Workers bit-identical (the lane count and reduction order are
// fixed constants, independent of sharding), and cache/engine keys are
// tagged with the backend whenever it is not the reference (see
// registry.Key), so bytes minted under one arithmetic regime are never
// silently reinterpreted under another.
type Backend uint32

const (
	// BackendReference is the scalar oracle and the default.
	BackendReference Backend = iota
	// BackendFast is the multi-accumulator (and, where available,
	// AVX2) implementation, ≥2x faster on dot-bound kernels.
	BackendFast
)

// String returns the name accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case BackendReference:
		return "reference"
	case BackendFast:
		return "fast"
	}
	return fmt.Sprintf("Backend(%d)", uint32(b))
}

// ParseBackend maps a backend name ("reference" or "fast") to its value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "reference":
		return BackendReference, nil
	case "fast":
		return BackendFast, nil
	}
	return BackendReference, fmt.Errorf("mat: unknown kernel backend %q (want reference or fast)", s)
}

// kernelBackend is the process-wide backend knob. An atomic rather than
// a plain var only so tests that flip it under -race are clean; the
// supported pattern is one SetKernelBackend at process start, before
// any strategy is minted.
var kernelBackend atomic.Uint32

// SetKernelBackend selects the process-wide kernel backend and returns
// the previous setting. Like SetWorkers it is a startup knob: flipping
// it mid-flight does not corrupt anything (every kernel reads it once
// per call), but results computed before and after the flip mix two
// arithmetic regimes, and any key minted across the boundary would lie
// about its provenance. Set it in main, before the first optimization.
func SetKernelBackend(b Backend) Backend {
	return Backend(kernelBackend.Swap(uint32(b)))
}

// KernelBackend reports the backend the kernels will use.
func KernelBackend() Backend { return Backend(kernelBackend.Load()) }

func init() {
	// HDMM_KERNELS lets the CI matrix (and operators) run a whole
	// binary under the fast backend without code changes. Strict: a
	// typo here must not silently fall back to a different arithmetic
	// regime than the one the operator asked for.
	if v := os.Getenv("HDMM_KERNELS"); v != "" {
		b, err := ParseBackend(v)
		if err != nil {
			panic("HDMM_KERNELS: " + err.Error())
		}
		kernelBackend.Store(uint32(b))
	}
}
