// Package snapshot persists the measured state of a serving engine — the
// state that carries spent privacy budget. HDMM's lifecycle is "optimize
// once, measure once, answer many" (Table 1(b) of McKenna et al.): the
// noisy measurement vector y is bought with an unrecoverable ε (and δ), so
// a daemon restart that loses y cannot re-measure without doubling the
// spend. A snapshot is everything needed to resurrect an engine WITHOUT
// touching the private data again: the engine key, the strategy (embedded
// as its own self-validating HDMMSTRG blob), the budget ledger (ε, δ,
// mechanism seed), and the y and x̂ vectors bit-exactly.
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
	// Y is the noisy measurement vector — the budget-carrying state.
	Y []float64
	// Xhat is the least-squares estimate reconstructed from Y. Persisting
	// it (rather than re-running Reconstruct) makes recovered answers
	// byte-identical by construction.
	Xhat []float64
}

// Binary format (version 1, little endian):
//
//	magic    [8]byte  "HDMMSNAP"
//	version  u16      1
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
//	y        u32 count + count × f64
//	xhat     u32 count + count × f64
//	crc      u32 CRC-32 (IEEE) of every preceding byte
const (
	codecMagic   = "HDMMSNAP"
	codecVersion = 1
)

// Encode serializes a snapshot. The same bounds Decode enforces are
// checked here, keeping the "anything persisted loads again" invariant.
func Encode(sn *Snapshot) ([]byte, error) {
	if sn.Record == nil {
		return nil, fmt.Errorf("snapshot: nil strategy record")
	}
	if math.IsNaN(sn.Eps) || math.IsInf(sn.Eps, 0) || sn.Eps <= 0 {
		return nil, fmt.Errorf("snapshot: invalid eps %v", sn.Eps)
	}
	if math.IsNaN(sn.Delta) || sn.Delta < 0 || sn.Delta >= 1 {
		return nil, fmt.Errorf("snapshot: invalid delta %v", sn.Delta)
	}
	if len(sn.Domain) == 0 || len(sn.Domain) > binfmt.MaxCount {
		return nil, fmt.Errorf("snapshot: invalid domain attribute count %d", len(sn.Domain))
	}
	if len(sn.Queries) == 0 || len(sn.Queries) > binfmt.MaxCount {
		return nil, fmt.Errorf("snapshot: invalid query count %d", len(sn.Queries))
	}
	if len(sn.Y) == 0 || len(sn.Y) > binfmt.MaxCount {
		return nil, fmt.Errorf("snapshot: invalid measurement length %d", len(sn.Y))
	}
	if len(sn.Xhat) == 0 || len(sn.Xhat) > binfmt.MaxCount {
		return nil, fmt.Errorf("snapshot: invalid estimate length %d", len(sn.Xhat))
	}
	blob, err := registry.Encode(sn.Record)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding strategy: %w", err)
	}

	// Size the buffer exactly up front: the vectors make a snapshot tens of
	// MB, and growing it by append copies it several times over.
	size := len(codecMagic) + 2 + 4 + len(sn.Key) + 4 + len(sn.StrategyKey) + 4*8 +
		4 + 8*len(sn.Domain) + 4 + 4 + len(blob) + 4 + 8*len(sn.Y) + 4 + 8*len(sn.Xhat) + 4
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
	for i, n := range sn.Domain {
		if n <= 0 || n > binfmt.MaxCount {
			return nil, fmt.Errorf("snapshot: domain[%d] = %d outside the codec bound %d", i, n, binfmt.MaxCount)
		}
		w.U64(uint64(n))
	}
	w.U32(uint32(len(sn.Queries)))
	for _, q := range sn.Queries {
		w.Str(q)
	}
	w.Blob(blob)
	w.U32(uint32(len(sn.Y)))
	w.F64s(sn.Y)
	w.U32(uint32(len(sn.Xhat)))
	w.F64s(sn.Xhat)
	return w.Seal(), nil
}

// Decode parses a blob produced by Encode, round-tripping every float
// bit-exactly. It performs the structural validation (magic, version,
// checksum, bounds, embedded-strategy integrity, finite budget fields);
// the semantic fit between strategy, workload and vector lengths is the
// restorer's job, which has the workload machinery to check shapes.
func Decode(b []byte) (*Snapshot, error) {
	sn, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return sn, nil
}

func decode(b []byte) (*Snapshot, error) {
	r, err := binfmt.Open(b, codecMagic, codecVersion)
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
	if err := r.Err(); err != nil {
		return nil, err
	}
	if math.IsNaN(sn.Eps) || math.IsInf(sn.Eps, 0) || sn.Eps <= 0 {
		return nil, fmt.Errorf("invalid stored eps %v", sn.Eps)
	}
	if math.IsNaN(sn.Delta) || sn.Delta < 0 || sn.Delta >= 1 {
		return nil, fmt.Errorf("invalid stored delta %v", sn.Delta)
	}
	if math.IsNaN(sn.RootMSE) || sn.RootMSE < 0 {
		return nil, fmt.Errorf("invalid stored RMSE %v", sn.RootMSE)
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
	sn.Y = r.F64s(int(r.U32()))
	sn.Xhat = r.F64s(int(r.U32()))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(sn.Y) == 0 || len(sn.Xhat) == 0 {
		return nil, fmt.Errorf("empty measurement or estimate vector")
	}
	for _, v := range sn.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite measurement value %v", v)
		}
	}
	for _, v := range sn.Xhat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite estimate value %v", v)
		}
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes after payload", n)
	}
	return sn, nil
}
