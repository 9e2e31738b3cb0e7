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
// The codec mirrors internal/registry's HDMMSTRG discipline: versioned
// magic, little-endian, floats as raw IEEE-754 bits (bit-exact round
// trip), a CRC-32 trailer, and a fully bounds-checked decoder that rejects
// every truncation and corruption with an error — never a panic and never
// a silently wrong engine.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

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

	// maxCount bounds every length field before it is used for allocation,
	// mirroring the registry codec: a corrupted count must cost an error,
	// not a multi-gigabyte allocation.
	maxCount = 1 << 26
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
	if len(sn.Domain) == 0 || len(sn.Domain) > maxCount {
		return nil, fmt.Errorf("snapshot: invalid domain attribute count %d", len(sn.Domain))
	}
	if len(sn.Queries) == 0 || len(sn.Queries) > maxCount {
		return nil, fmt.Errorf("snapshot: invalid query count %d", len(sn.Queries))
	}
	if len(sn.Y) == 0 || len(sn.Y) > maxCount {
		return nil, fmt.Errorf("snapshot: invalid measurement length %d", len(sn.Y))
	}
	if len(sn.Xhat) == 0 || len(sn.Xhat) > maxCount {
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
	e := &encoder{buf: make([]byte, 0, size)}
	e.bytes([]byte(codecMagic))
	e.u16(codecVersion)
	e.str(sn.Key)
	e.str(sn.StrategyKey)
	e.f64(sn.Eps)
	e.f64(sn.Delta)
	e.u64(sn.Seed)
	e.f64(sn.RootMSE)
	e.u32(uint32(len(sn.Domain)))
	for i, n := range sn.Domain {
		if n <= 0 || n > maxCount {
			return nil, fmt.Errorf("snapshot: domain[%d] = %d outside the codec bound %d", i, n, maxCount)
		}
		e.u64(uint64(n))
	}
	e.u32(uint32(len(sn.Queries)))
	for _, q := range sn.Queries {
		e.str(q)
	}
	e.u32(uint32(len(blob)))
	e.bytes(blob)
	e.u32(uint32(len(sn.Y)))
	for _, v := range sn.Y {
		e.f64(v)
	}
	e.u32(uint32(len(sn.Xhat)))
	for _, v := range sn.Xhat {
		e.f64(v)
	}
	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf, nil
}

// Decode parses a blob produced by Encode, round-tripping every float
// bit-exactly. It performs the structural validation (magic, version,
// checksum, bounds, embedded-strategy integrity, finite budget fields);
// the semantic fit between strategy, workload and vector lengths is the
// restorer's job, which has the workload machinery to check shapes.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(codecMagic)+2+4 {
		return nil, fmt.Errorf("snapshot: blob too short (%d bytes)", len(b))
	}
	if string(b[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("snapshot: checksum mismatch (corrupted blob)")
	}
	d := &decoder{buf: body, off: len(codecMagic)}
	if v := d.u16(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d", v)
	}
	sn := &Snapshot{}
	sn.Key = d.str()
	sn.StrategyKey = d.str()
	sn.Eps = d.f64()
	sn.Delta = d.f64()
	sn.Seed = d.u64()
	sn.RootMSE = d.f64()
	if d.err == nil && (math.IsNaN(sn.Eps) || math.IsInf(sn.Eps, 0) || sn.Eps <= 0) {
		return nil, fmt.Errorf("snapshot: invalid stored eps %v", sn.Eps)
	}
	if d.err == nil && (math.IsNaN(sn.Delta) || sn.Delta < 0 || sn.Delta >= 1) {
		return nil, fmt.Errorf("snapshot: invalid stored delta %v", sn.Delta)
	}
	if d.err == nil && (math.IsNaN(sn.RootMSE) || sn.RootMSE < 0) {
		return nil, fmt.Errorf("snapshot: invalid stored RMSE %v", sn.RootMSE)
	}

	nd := int(d.u32())
	if d.err == nil && (nd <= 0 || nd > maxCount) {
		return nil, fmt.Errorf("snapshot: invalid domain attribute count %d", nd)
	}
	for i := 0; i < nd && d.err == nil; i++ {
		n := d.u64()
		if n == 0 || n > maxCount {
			if d.err == nil {
				return nil, fmt.Errorf("snapshot: invalid domain size %d", n)
			}
			break
		}
		sn.Domain = append(sn.Domain, int(n))
	}

	nq := int(d.u32())
	if d.err == nil && (nq <= 0 || nq > maxCount) {
		return nil, fmt.Errorf("snapshot: invalid query count %d", nq)
	}
	for i := 0; i < nq && d.err == nil; i++ {
		sn.Queries = append(sn.Queries, d.str())
	}

	blob := d.blob()
	if d.err == nil {
		rec, err := registry.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("snapshot: embedded strategy: %w", err)
		}
		sn.Record = rec
	}

	sn.Y = d.f64s(int(d.u32()))
	sn.Xhat = d.f64s(int(d.u32()))
	if d.err != nil {
		return nil, d.err
	}
	if len(sn.Y) == 0 || len(sn.Xhat) == 0 {
		return nil, fmt.Errorf("snapshot: empty measurement or estimate vector")
	}
	for _, v := range sn.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("snapshot: non-finite measurement value %v", v)
		}
	}
	for _, v := range sn.Xhat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("snapshot: non-finite estimate value %v", v)
		}
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return sn, nil
}

// ---------------------------------------------------------------------------
// low-level writer/reader (the registry codec's discipline: the first short
// read or invalid value latches err and every later read returns zero)
// ---------------------------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) u16(v uint16)   { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64)  { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off < n {
		d.err = fmt.Errorf("snapshot: truncated blob (need %d bytes at offset %d, have %d)", n, d.off, len(d.buf)-d.off)
		return false
	}
	return true
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) f64s(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n <= 0 || n > maxCount || !d.need(8*n) {
		if d.err == nil {
			d.err = fmt.Errorf("snapshot: invalid float vector length %d", n)
		}
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) str() string {
	n := int(d.u32())
	if n < 0 || n > maxCount || !d.need(n) {
		if d.err == nil {
			d.err = fmt.Errorf("snapshot: invalid string length %d", n)
		}
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// blob reads a length-prefixed byte section (the embedded strategy).
func (d *decoder) blob() []byte {
	n := int(d.u32())
	if n < 0 || n > maxCount || !d.need(n) {
		if d.err == nil {
			d.err = fmt.Errorf("snapshot: invalid embedded blob length %d", n)
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
