package snapshot

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/registry"
)

func randTheta(rng *rand.Rand, p, n int) *mat.Dense {
	m := mat.NewDense(p, n)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 100
	}
	return out
}

// sampleSnapshots covers the strategy kinds an engine snapshot embeds,
// with randomized floats so repeated trials cover many bit patterns.
func sampleSnapshots(rng *rand.Rand) []*Snapshot {
	identity := &registry.Record{
		Strategy: &core.IdentityStrategy{N: 6},
		Err:      rng.Float64() * 100,
		Operator: "Identity",
	}
	kron := &registry.Record{
		Strategy: core.NewKronStrategy(
			core.NewPIdentity(randTheta(rng, 1+rng.IntN(2), 2)),
			core.NewPIdentity(randTheta(rng, 1+rng.IntN(2), 5)),
		),
		Err:      rng.Float64() * 100,
		Operator: "OPT⊗",
	}
	return []*Snapshot{
		{
			Key:         "a1b2c3",
			StrategyKey: "deadbeef",
			Eps:         0.5 + rng.Float64(),
			Delta:       0,
			Seed:        rng.Uint64(),
			RootMSE:     rng.Float64() * 10,
			Domain:      []int{6},
			Queries:     []string{"I"},
			Record:      identity,
			Y:           randVec(rng, 6),
			Xhat:        randVec(rng, 6),
		},
		{
			Key:         "ffee00",
			StrategyKey: "cafe42",
			Eps:         0.9,
			Delta:       1e-6,
			Seed:        rng.Uint64(),
			RootMSE:     rng.Float64(),
			Domain:      []int{2, 5},
			Queries:     []string{"I,T", "T,I"},
			Record:      kron,
			Y:           randVec(rng, 10),
			Xhat:        randVec(rng, 10),
		},
	}
}

func snapshotsEqual(t *testing.T, a, b *Snapshot) {
	t.Helper()
	if a.Key != b.Key || a.StrategyKey != b.StrategyKey {
		t.Fatalf("key mismatch: (%q,%q) vs (%q,%q)", a.Key, a.StrategyKey, b.Key, b.StrategyKey)
	}
	// Bit-exact on every float: != catches any rounding through the codec.
	if a.Eps != b.Eps || a.Delta != b.Delta || a.Seed != b.Seed || a.RootMSE != b.RootMSE {
		t.Fatalf("ledger mismatch: (%v,%v,%d,%v) vs (%v,%v,%d,%v)",
			a.Eps, a.Delta, a.Seed, a.RootMSE, b.Eps, b.Delta, b.Seed, b.RootMSE)
	}
	if len(a.Domain) != len(b.Domain) {
		t.Fatal("domain length mismatch")
	}
	for i := range a.Domain {
		if a.Domain[i] != b.Domain[i] {
			t.Fatalf("domain[%d] mismatch", i)
		}
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query count mismatch")
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d mismatch: %q vs %q", i, a.Queries[i], b.Queries[i])
		}
	}
	if !floatsEqual(a.Y, b.Y) {
		t.Fatal("measurement vector bits differ")
	}
	if !floatsEqual(a.Xhat, b.Xhat) {
		t.Fatal("estimate vector bits differ")
	}
	// The embedded strategy must re-encode identically through the
	// registry codec — full structural equality is that codec's tests.
	ab, err := registry.Encode(a.Record)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := registry.Encode(b.Record)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("embedded strategy re-encodes differently")
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCodecRoundTrip: encode → decode is bit-exact, and re-encoding the
// decoded snapshot reproduces the blob byte-identically.
func TestCodecRoundTrip(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x54a9))
		for _, sn := range sampleSnapshots(rng) {
			blob, err := Encode(sn)
			if err != nil {
				t.Fatalf("trial %d %s: encode: %v", trial, sn.Key, err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatalf("trial %d %s: decode: %v", trial, sn.Key, err)
			}
			snapshotsEqual(t, sn, got)
			blob2, err := Encode(got)
			if err != nil {
				t.Fatalf("trial %d %s: re-encode: %v", trial, sn.Key, err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("trial %d %s: re-encoded blob differs", trial, sn.Key)
			}
		}
	}
}

// TestEncodeSizesBufferExactly: Encode computes the blob's length before
// writing it, so the buffer is never regrown; a format change that misses
// the size computation fails here.
func TestEncodeSizesBufferExactly(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0x54a9))
	for _, sn := range sampleSnapshots(rng) {
		blob, err := Encode(sn)
		if err != nil {
			t.Fatalf("%s: encode: %v", sn.Key, err)
		}
		if cap(blob) != len(blob) {
			t.Fatalf("%s: blob length %d, buffer sized %d", sn.Key, len(blob), cap(blob))
		}
	}
}

// TestCodecRejectsTruncation: every proper prefix of a valid blob must be
// rejected with an error — never a panic, never a silent success. A
// truncated snapshot that loaded would serve wrong answers under a valid
// tenant key.
func TestCodecRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, sn := range sampleSnapshots(rng) {
		blob, err := Encode(sn)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(blob); n++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic decoding %d-byte truncation: %v", sn.Key, n, r)
					}
				}()
				if _, err := Decode(blob[:n]); err == nil {
					t.Fatalf("%s: %d-byte truncation decoded without error", sn.Key, n)
				}
			}()
		}
	}
}

// TestCodecRejectsCorruption: flipping any single byte must be rejected
// without panicking (the CRC catches all single-byte corruptions,
// including inside the embedded strategy blob).
func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, sn := range sampleSnapshots(rng) {
		blob, err := Encode(sn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic decoding blob with byte %d flipped: %v", sn.Key, i, r)
					}
				}()
				if _, err := Decode(mut); err == nil {
					t.Fatalf("%s: corrupted byte %d decoded without error", sn.Key, i)
				}
			}()
		}
	}
}

// TestCodecRejectsGarbage: random byte strings never decode or panic.
func TestCodecRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 500; trial++ {
		blob := make([]byte, rng.IntN(512))
		for i := range blob {
			blob[i] = byte(rng.UintN(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic decoding %d random bytes: %v", len(blob), r)
				}
			}()
			if _, err := Decode(blob); err == nil {
				t.Fatalf("trial %d: random %d-byte blob decoded without error", trial, len(blob))
			}
		}()
	}
}

// TestEncodeRejectsInvalidState: a snapshot that could never have come
// from a real engine must not persist (the "anything persisted loads
// again" invariant cuts both ways).
func TestEncodeRejectsInvalidState(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	base := func() *Snapshot { return sampleSnapshots(rng)[0] }
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"nil record", func(s *Snapshot) { s.Record = nil }},
		{"zero eps", func(s *Snapshot) { s.Eps = 0 }},
		{"NaN eps", func(s *Snapshot) { s.Eps = math.NaN() }},
		{"inf eps", func(s *Snapshot) { s.Eps = math.Inf(1) }},
		{"negative delta", func(s *Snapshot) { s.Delta = -0.1 }},
		{"delta one", func(s *Snapshot) { s.Delta = 1 }},
		{"empty domain", func(s *Snapshot) { s.Domain = nil }},
		{"zero domain size", func(s *Snapshot) { s.Domain = []int{0} }},
		{"empty queries", func(s *Snapshot) { s.Queries = nil }},
		{"empty measurement", func(s *Snapshot) { s.Y = nil }},
		{"empty estimate", func(s *Snapshot) { s.Xhat = nil }},
	}
	for _, tc := range cases {
		sn := base()
		tc.mut(sn)
		if _, err := Encode(sn); err == nil {
			t.Errorf("%s: encoded without error", tc.name)
		}
	}
}

// TestDecodeRejectsBadVersion: a structurally valid blob with an unknown
// version is rejected on the version check, not the CRC.
func TestDecodeRejectsBadVersion(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	blob, err := Encode(sampleSnapshots(rng)[0])
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(codecMagic)] = 0xff
	if _, err := Decode(reseal(mut)); err == nil {
		t.Error("future format version decoded without error")
	}
}

// TestDecodeRejectsNonFiniteVectors: NaN/Inf in y or x̂ (valid IEEE bits, so
// the CRC alone cannot catch a snapshot written from poisoned state) are
// rejected — they would poison every answer the recovered engine serves.
func TestDecodeRejectsNonFiniteVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, poison := range []float64{math.NaN(), math.Inf(1)} {
		sn := sampleSnapshots(rng)[0]
		sn.Y = append([]float64(nil), sn.Y...)
		sn.Y[2] = poison
		// Encode deliberately does not re-scan vector floats (hot path);
		// build the blob and prove Decode is the backstop.
		blob, err := Encode(sn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(blob); err == nil {
			t.Errorf("snapshot with y[2]=%v decoded without error", poison)
		}
	}
}
