package registry

import (
	"fmt"
	"math"

	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/marginals"
	"repro/internal/mat"
)

// Record is what the registry stores per cache key: the selected strategy,
// its expected error ‖W·A⁺‖²_F, and the operator that produced it. It is
// core.Selected itself — the registry persists selections verbatim, so a
// field added to Selected fails compilation here rather than being
// silently dropped from the cache.
type Record = core.Selected

// Binary format (version 1, little endian):
//
//	magic   [8]byte  "HDMMSTRG"
//	version u16      1
//	operator string  (u32 length + bytes)
//	err     f64
//	kind    u8       1=Identity 2=Kron 3=Union 4=Marginal
//	payload          kind-specific, see Encode below
//	crc     u32      CRC-32 (IEEE) of every preceding byte
//
// The frame (magic, version, checksum) and the bounds-checked primitives
// are internal/binfmt's, shared with the HDMMSNAP snapshot format. The
// trailing checksum plus fully bounds-checked decoding means corrupted or
// truncated blobs are rejected with an error — never a panic and never a
// silently wrong strategy.
const (
	codecMagic   = "HDMMSTRG"
	codecVersion = 1

	kindIdentity = 1
	kindKron     = 2
	kindUnion    = 3
	kindMarginal = 4

	// maxMarginalDims bounds the marginal lattice dimension (the weight
	// vector has 2^d entries). Enforced symmetrically by Encode and Decode
	// so anything persisted is guaranteed to load again.
	maxMarginalDims = 24
)

// Encode serializes a record. Every strategy kind produced by core.Select —
// explicit p-Identity matrices (inside Kron/Union parts), Kronecker
// products, marginal weight vectors, and the Identity fallback — is
// supported; anything else is an error.
func Encode(rec *Record) ([]byte, error) {
	w := binfmt.NewWriter(codecMagic, codecVersion, 0)
	w.Str(rec.Operator)
	w.F64(rec.Err)
	switch s := rec.Strategy.(type) {
	case *core.IdentityStrategy:
		if s.N <= 0 || s.N > binfmt.MaxCount {
			return nil, fmt.Errorf("registry: identity strategy size %d outside the codec bound %d", s.N, binfmt.MaxCount)
		}
		w.U8(kindIdentity)
		w.U64(uint64(s.N))
	case *core.KronStrategy:
		w.U8(kindKron)
		if err := writeKron(w, s); err != nil {
			return nil, err
		}
	case *core.UnionStrategy:
		w.U8(kindUnion)
		w.U32(uint32(len(s.Parts)))
		for _, part := range s.Parts {
			if err := writeKron(w, part); err != nil {
				return nil, err
			}
		}
		w.F64s(s.Shares)
		for _, g := range s.Groups {
			w.U32(uint32(len(g)))
			for _, idx := range g {
				if idx < 0 || idx > binfmt.MaxCount {
					return nil, fmt.Errorf("registry: union group index %d outside the codec bound %d", idx, binfmt.MaxCount)
				}
				w.U32(uint32(idx))
			}
		}
	case *core.MarginalStrategy:
		w.U8(kindMarginal)
		sizes := s.Space.Sizes()
		if len(sizes) > maxMarginalDims {
			return nil, fmt.Errorf("registry: marginal strategy over %d attributes exceeds the codec bound %d", len(sizes), maxMarginalDims)
		}
		w.U32(uint32(len(sizes)))
		for _, n := range sizes {
			if n <= 0 || n > binfmt.MaxCount {
				return nil, fmt.Errorf("registry: marginal attribute size %d outside the codec bound %d", n, binfmt.MaxCount)
			}
			w.U64(uint64(n))
		}
		w.U32(uint32(len(s.Theta)))
		w.F64s(s.Theta)
	default:
		return nil, fmt.Errorf("registry: cannot encode strategy type %T", rec.Strategy)
	}
	return w.Seal(), nil
}

// writeKron writes a Kronecker strategy: per factor the explicit p×n
// parameter matrix Θ of its p-Identity sub-strategy. Shapes outside
// Decode's bounds are rejected here, keeping the "anything persisted loads
// again" invariant.
func writeKron(w *binfmt.Writer, s *core.KronStrategy) error {
	w.U32(uint32(len(s.Subs)))
	for _, sub := range s.Subs {
		p, n := sub.Theta.Dims()
		if p > binfmt.MaxCount || n > binfmt.MaxCount || p*n > binfmt.MaxCount {
			return fmt.Errorf("registry: Θ shape %d×%d outside the codec bound", p, n)
		}
		w.U32(uint32(p))
		w.U32(uint32(n))
		w.F64s(sub.Theta.Data())
	}
	return nil
}

// Decode parses a blob produced by Encode. It round-trips every strategy
// byte-identically: all floats are stored as raw IEEE-754 bits.
func Decode(b []byte) (*Record, error) {
	rec, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return rec, nil
}

func decode(b []byte) (*Record, error) {
	r, _, err := binfmt.Open(b, codecMagic, codecVersion, codecVersion)
	if err != nil {
		return nil, err
	}
	rec := &Record{Operator: r.Str(), Err: r.F64()}
	kind := r.U8()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if math.IsNaN(rec.Err) || rec.Err < 0 {
		return nil, fmt.Errorf("invalid stored error %v", rec.Err)
	}
	switch kind {
	case kindIdentity:
		rec.Strategy = &core.IdentityStrategy{N: r.Count64(1, binfmt.MaxCount, "identity size")}
	case kindKron:
		rec.Strategy, err = readKron(&r)
	case kindUnion:
		rec.Strategy, err = readUnion(&r)
	case kindMarginal:
		rec.Strategy, err = readMarginal(&r)
	default:
		return nil, fmt.Errorf("unknown strategy kind %d", kind)
	}
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return nil, err
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes after strategy payload", n)
	}
	return rec, nil
}

// readKron reads a Kronecker strategy, validating that every Θ entry is a
// finite non-negative float (the p-Identity invariant; violating it would
// panic deep inside reconstruction).
func readKron(r *binfmt.Reader) (*core.KronStrategy, error) {
	numSubs := r.Count(1, binfmt.MaxCount, "Kron factor count")
	subs := make([]*core.PIdentity, 0, min(numSubs, 4096))
	for range numSubs {
		p := r.Count(1, binfmt.MaxCount, "Θ row count")
		n := r.Count(1, binfmt.MaxCount, "Θ column count")
		data := r.F64s(p * n)
		if err := r.Err(); err != nil {
			return nil, err
		}
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("invalid Θ entry %v", v)
			}
		}
		subs = append(subs, core.NewPIdentity(mat.FromData(p, n, data)))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return core.NewKronStrategy(subs...), nil
}

// readUnion reads a union of Kronecker parts with their budget shares and
// workload groups. A count is only as trustworthy as the bytes behind it,
// so no slice is sized from one beyond readKron's cap.
func readUnion(r *binfmt.Reader) (*core.UnionStrategy, error) {
	numParts := r.Count(1, binfmt.MaxCount, "union part count")
	u := &core.UnionStrategy{Parts: make([]*core.KronStrategy, 0, min(numParts, 4096))}
	for range numParts {
		part, err := readKron(r)
		if err != nil {
			return nil, err
		}
		u.Parts = append(u.Parts, part)
	}
	u.Shares = r.F64s(numParts)
	if err := r.Err(); err != nil {
		return nil, err
	}
	shareSum := 0.0
	for _, sh := range u.Shares {
		if math.IsNaN(sh) || sh <= 0 || sh > 1 {
			return nil, fmt.Errorf("invalid budget share %v", sh)
		}
		shareSum += sh
	}
	// UnionStrategy.Sensitivity() hardcodes 1 on the invariant Σβ = 1;
	// a blob violating it would silently under-calibrate the noise.
	if math.Abs(shareSum-1) > 1e-9 {
		return nil, fmt.Errorf("union budget shares sum to %v, want 1", shareSum)
	}
	u.Groups = make([][]int, 0, min(numParts, 4096))
	for i := 0; i < numParts && r.Err() == nil; i++ {
		glen := r.Count(0, binfmt.MaxCount, "union group length")
		g := make([]int, 0, min(glen, 4096))
		for j := 0; j < glen && r.Err() == nil; j++ {
			g = append(g, r.Count(0, binfmt.MaxCount, "union group index"))
		}
		u.Groups = append(u.Groups, g)
	}
	return u, nil
}

// readMarginal reads a marginal strategy: the attribute sizes and the 2^d
// subset weights θ.
func readMarginal(r *binfmt.Reader) (*core.MarginalStrategy, error) {
	sizes := make([]int, r.Count(1, maxMarginalDims, "marginal dimension count"))
	for i := range sizes {
		sizes[i] = r.Count64(1, binfmt.MaxCount, "marginal attribute size")
	}
	theta := r.F64s(r.Count(1<<len(sizes), 1<<len(sizes), "marginal weight vector length"))
	if err := r.Err(); err != nil {
		return nil, err
	}
	sum := 0.0
	for _, v := range theta {
		if math.IsNaN(v) || v < 0 {
			return nil, fmt.Errorf("invalid marginal weight %v", v)
		}
		sum += v
	}
	// MarginalStrategy.Sensitivity() hardcodes 1 on the normalization
	// invariant Σθ = 1 (NewMarginalStrategy enforces it at build time,
	// and the decoder constructs the struct directly); accepting an
	// unnormalized blob would silently under-calibrate the noise.
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("marginal weights sum to %v, want 1", sum)
	}
	return &core.MarginalStrategy{Space: marginals.NewSpace(sizes), Theta: theta}, nil
}
