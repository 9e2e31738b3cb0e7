// Package snapshot persists the measured state of a serving engine — the
// state that carries spent privacy budget. HDMM's lifecycle is "optimize
// once, measure once, answer many" (Table 1(b) of McKenna et al.): the
// noisy measurement y is bought with an unrecoverable ε (and δ), and every
// answer is post-processing of the estimate x̂ = A⁺y, so x̂ is the
// persisted, budget-carrying state and y is dropped once x̂ exists. A
// snapshot is everything needed to resurrect an engine WITHOUT touching
// the private data again: the engine key, the strategy (embedded as its
// own self-validating HDMMSTRG blob), the budget ledger (ε, δ, mechanism
// seed), and x̂ bit-exactly.
//
// HDMMSNAP shares its frame and primitives with the registry's HDMMSTRG
// format through internal/binfmt: versioned magic, little endian, floats
// as raw IEEE-754 bits (bit-exact round trip), a CRC-32 trailer, and one
// bounds-checked decoder that rejects every truncation and corruption
// with an error — never a panic and never a silently wrong engine. This
// file owns only the field order and the snapshot's own validation.
package snapshot

import (
	"fmt"
	"math"

	"repro/internal/binfmt"
	"repro/internal/registry"
)

// Snapshot is the durable state of one serving engine.
type Snapshot struct {
	// Key is the engine's pool key (the bearer handle answer requests
	// use). It is stored so recovery re-registers the engine under the
	// exact pre-crash address.
	Key string
	// StrategyKey is the registry content address of the strategy, used to
	// re-seed the strategy cache during recovery.
	StrategyKey string
	// Eps, Delta and Seed are the budget ledger of the one measurement:
	// what was spent (ε, δ) and which noise stream paid it.
	Eps   float64
	Delta float64
	Seed  uint64
	// RootMSE is the engine's predicted per-query RMSE (recomputing it
	// would need the mechanism constant; storing it keeps metadata
	// byte-identical across a restart).
	RootMSE float64
	// Domain and Queries rebuild the workload the engine serves
	// (ParseProducts is deterministic, so the raw specs round-trip it).
	Domain  []int
	Queries []string
	// Record is the selected strategy, embedded as a registry blob.
	Record *registry.Record
	// Xhat is the least-squares estimate x̂, the budget-carrying state.
	// Persisting it (rather than re-running Reconstruct) makes recovered
	// answers byte-identical by construction.
	Xhat []float64
}

// Binary format (version 2, little endian):
//
//	magic    [8]byte  "HDMMSNAP"
//	version  u16      2
//	key      string   (u32 length + bytes)
//	strategyKey string
//	eps      f64
//	delta    f64
//	seed     u64
//	rootMSE  f64
//	domain   u32 count + count × u64
//	queries  u32 count + count × string
//	strategy u32 length + HDMMSTRG blob (registry.Encode output, carrying
//	         its own magic and CRC — a snapshot cannot smuggle in a
//	         strategy the registry codec would reject)
//	xhat     u32 count + count × f64
//	crc      u32 CRC-32 (IEEE) of every preceding byte
//
// Version 1, read but never written, has a `y` section (u32 count + count
// × f64, the noisy measurement) between strategy and xhat; Decode checks
// it as version 1 did and drops it.
const (
	codecMagic   = "HDMMSNAP"
	codecVersion = 2
)

// Encode serializes a snapshot in version 2. It runs Validate first, so
// anything persisted loads again.
func Encode(sn *Snapshot) ([]byte, error) {
	if err := sn.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return encode(sn)
}

// encode writes the format without Validate's value checks.
func encode(sn *Snapshot) ([]byte, error) {
	blob, err := registry.Encode(sn.Record)
	if err == nil && len(blob) > binfmt.MaxCount {
		err = fmt.Errorf("%d-byte blob exceeds %d", len(blob), binfmt.MaxCount)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding strategy: %w", err)
	}

	// Size the buffer exactly up front: x̂ makes a snapshot megabytes, and
	// growing it by append copies it several times over.
	size := len(codecMagic) + 2 + 4 + len(sn.Key) + 4 + len(sn.StrategyKey) + 4*8 +
		4 + 8*len(sn.Domain) + 4 + 4 + len(blob) + 4 + 8*len(sn.Xhat) + 4
	for _, q := range sn.Queries {
		size += 4 + len(q)
	}
	w := binfmt.NewWriter(codecMagic, codecVersion, size)
	w.Str(sn.Key)
	w.Str(sn.StrategyKey)
	w.F64(sn.Eps)
	w.F64(sn.Delta)
	w.U64(sn.Seed)
	w.F64(sn.RootMSE)
	w.U32(uint32(len(sn.Domain)))
	for _, n := range sn.Domain {
		w.U64(uint64(n))
	}
	w.U32(uint32(len(sn.Queries)))
	for _, q := range sn.Queries {
		w.Str(q)
	}
	w.Blob(blob)
	w.U32(uint32(len(sn.Xhat)))
	w.F64s(sn.Xhat)
	return w.Seal(), nil
}

// Validate applies every value check Decode applies to what it reads, so
// a snapshot that passes it loads again once encoded.
func (sn *Snapshot) Validate() error {
	switch {
	case sn.Record == nil || sn.Record.Strategy == nil:
		return fmt.Errorf("no strategy")
	case math.IsNaN(sn.Eps) || math.IsInf(sn.Eps, 0) || sn.Eps <= 0:
		return fmt.Errorf("invalid eps %v", sn.Eps)
	case math.IsNaN(sn.Delta) || sn.Delta < 0 || sn.Delta >= 1:
		return fmt.Errorf("invalid delta %v", sn.Delta)
	case math.IsNaN(sn.RootMSE) || sn.RootMSE < 0:
		return fmt.Errorf("invalid RMSE %v", sn.RootMSE)
	case len(sn.Domain) == 0 || len(sn.Domain) > binfmt.MaxCount:
		return fmt.Errorf("invalid domain attribute count %d", len(sn.Domain))
	case len(sn.Queries) == 0 || len(sn.Queries) > binfmt.MaxCount:
		return fmt.Errorf("invalid query count %d", len(sn.Queries))
	}
	for i, n := range sn.Domain {
		if n <= 0 || n > binfmt.MaxCount {
			return fmt.Errorf("domain[%d] = %d outside [1, %d]", i, n, binfmt.MaxCount)
		}
	}
	for _, s := range append([]string{sn.Key, sn.StrategyKey}, sn.Queries...) {
		if len(s) > binfmt.MaxCount {
			return fmt.Errorf("string of %d bytes exceeds %d", len(s), binfmt.MaxCount)
		}
	}
	return checkVector(sn.Xhat, "estimate")
}

// checkVector rejects an empty, oversized or non-finite vector. NaN and Inf
// are valid IEEE bits the CRC cannot catch, and would poison every answer.
func checkVector(v []float64, what string) error {
	if len(v) == 0 || len(v) > binfmt.MaxCount {
		return fmt.Errorf("invalid %s length %d", what, len(v))
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("non-finite %s value %v", what, x)
		}
	}
	return nil
}

// Decode parses a version 2 or 1 blob, every float bit-exactly. It checks
// structure (magic, version, checksum, bounds, embedded strategy) and runs
// Validate; the fit between strategy, workload and x̂'s length is the
// restorer's job, which has the workload machinery to check shapes.
func Decode(b []byte) (*Snapshot, error) {
	sn, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return sn, nil
}

func decode(b []byte) (*Snapshot, error) {
	r, version, err := binfmt.Open(b, codecMagic, 1, codecVersion)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{
		Key:         r.Str(),
		StrategyKey: r.Str(),
		Eps:         r.F64(),
		Delta:       r.F64(),
		Seed:        r.U64(),
		RootMSE:     r.F64(),
	}
	nd := r.Count(1, binfmt.MaxCount, "domain attribute count")
	for i := 0; i < nd && r.Err() == nil; i++ {
		sn.Domain = append(sn.Domain, r.Count64(1, binfmt.MaxCount, "domain size"))
	}
	nq := r.Count(1, binfmt.MaxCount, "query count")
	for i := 0; i < nq && r.Err() == nil; i++ {
		sn.Queries = append(sn.Queries, r.Str())
	}
	blob := r.Blob()
	if r.Err() == nil {
		rec, err := registry.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("embedded strategy: %w", err)
		}
		sn.Record = rec
	}
	if version == 1 { // y: held to version 1's checks, then dropped
		if y := r.F64s(int(r.U32())); r.Err() == nil {
			if err := checkVector(y, "measurement"); err != nil {
				return nil, err
			}
		}
	}
	sn.Xhat = r.F64s(int(r.U32()))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes after payload", n)
	}
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	return sn, nil
}
