package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/binfmt"
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

// sampleFixtures covers the strategy kinds an engine snapshot embeds,
// with randomized floats so repeated trials cover many bit patterns. ys
// holds the measurement vector a version 1 snapshot of each fixture
// carried. It is drawn where the version 1 fixtures drew it, so PCG(1, 2)
// still yields the fixtures the v1 goldens were captured from.
func sampleFixtures(rng *rand.Rand) (snaps []*Snapshot, ys [][]float64) {
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
	a := &Snapshot{
		Key:         "a1b2c3",
		StrategyKey: "deadbeef",
		Eps:         0.5 + rng.Float64(),
		Delta:       0,
		Seed:        rng.Uint64(),
		RootMSE:     rng.Float64() * 10,
		Domain:      []int{6},
		Queries:     []string{"I"},
		Record:      identity,
	}
	ys = append(ys, randVec(rng, 6))
	a.Xhat = randVec(rng, 6)
	b := &Snapshot{
		Key:         "ffee00",
		StrategyKey: "cafe42",
		Eps:         0.9,
		Delta:       1e-6,
		Seed:        rng.Uint64(),
		RootMSE:     rng.Float64(),
		Domain:      []int{2, 5},
		Queries:     []string{"I,T", "T,I"},
		Record:      kron,
	}
	ys = append(ys, randVec(rng, 10))
	b.Xhat = randVec(rng, 10)
	return []*Snapshot{a, b}, ys
}

func sampleSnapshots(rng *rand.Rand) []*Snapshot {
	snaps, _ := sampleFixtures(rng)
	return snaps
}

// encodeV1 writes sn in the read-only version 1 layout with y as its
// measurement section: the version 2 blob with y spliced in before x̂ and
// version 1 in its header, resealed. It skips Encode's checks so tests can
// write blobs Decode must reject; TestCodecGolden holds its output to the
// committed v1 blobs.
func encodeV1(t testing.TB, sn *Snapshot, y []float64) []byte {
	t.Helper()
	v2, err := encode(sn)
	if err != nil {
		t.Fatal(err)
	}
	xhatAt := len(v2) - 4 - (4 + 8*len(sn.Xhat))
	b := append([]byte(nil), v2[:xhatAt]...)
	binary.LittleEndian.PutUint16(b[len(codecMagic):], 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(y)))
	for _, v := range y {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return reseal(append(b, v2[xhatAt:]...))
}

// sampleBlobs is every fixture of rng encoded in both versions: the v2
// blob Encode writes and the v1 blob of the same fixture.
func sampleBlobs(t testing.TB, rng *rand.Rand) map[string][]byte {
	t.Helper()
	snaps, ys := sampleFixtures(rng)
	out := map[string][]byte{}
	for i, sn := range snaps {
		v2, err := Encode(sn)
		if err != nil {
			t.Fatalf("%s: encode: %v", sn.Key, err)
		}
		out[sn.Key+"-v2"] = v2
		out[sn.Key+"-v1"] = encodeV1(t, sn, ys[i])
	}
	return out
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

// TestCodecRejectsTruncation: every proper prefix of a valid blob, in
// either version, must be rejected with an error — never a panic, never a
// silent success. A truncated snapshot that loaded would serve wrong
// answers under a valid tenant key.
func TestCodecRejectsTruncation(t *testing.T) {
	for name, blob := range sampleBlobs(t, rand.New(rand.NewPCG(1, 2))) {
		for n := 0; n < len(blob); n++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic decoding %d-byte truncation: %v", name, n, r)
					}
				}()
				if _, err := Decode(blob[:n]); err == nil {
					t.Fatalf("%s: %d-byte truncation decoded without error", name, n)
				}
			}()
		}
	}
}

// TestCodecRejectsCorruption: flipping any single byte of a blob in either
// version must be rejected without panicking (the CRC catches all
// single-byte corruptions, including inside the embedded strategy blob).
func TestCodecRejectsCorruption(t *testing.T) {
	for name, blob := range sampleBlobs(t, rand.New(rand.NewPCG(3, 4))) {
		for i := range blob {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic decoding blob with byte %d flipped: %v", name, i, r)
					}
				}()
				if _, err := Decode(mut); err == nil {
					t.Fatalf("%s: corrupted byte %d decoded without error", name, i)
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

// TestEncodeRejectsWhatDecodeRejects: Encode persists nothing Decode
// refuses to load ("anything persisted loads again"). Each mutation is
// written without Encode's checks and must be rejected by Decode, and
// Encode must refuse it: a store that persisted it would quarantine the
// tenant at the next boot.
func TestEncodeRejectsWhatDecodeRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"zero eps", func(s *Snapshot) { s.Eps = 0 }},
		{"negative eps", func(s *Snapshot) { s.Eps = -1 }},
		{"NaN eps", func(s *Snapshot) { s.Eps = math.NaN() }},
		{"inf eps", func(s *Snapshot) { s.Eps = math.Inf(1) }},
		{"negative delta", func(s *Snapshot) { s.Delta = -0.1 }},
		{"delta one", func(s *Snapshot) { s.Delta = 1 }},
		{"NaN delta", func(s *Snapshot) { s.Delta = math.NaN() }},
		{"NaN RMSE", func(s *Snapshot) { s.RootMSE = math.NaN() }},
		{"negative RMSE", func(s *Snapshot) { s.RootMSE = -1 }},
		{"empty domain", func(s *Snapshot) { s.Domain = nil }},
		{"zero domain size", func(s *Snapshot) { s.Domain = []int{0} }},
		{"negative domain size", func(s *Snapshot) { s.Domain = []int{-6} }},
		{"oversized domain size", func(s *Snapshot) { s.Domain = []int{binfmt.MaxCount + 1} }},
		{"empty queries", func(s *Snapshot) { s.Queries = nil }},
		{"empty estimate", func(s *Snapshot) { s.Xhat = nil }},
		{"NaN estimate", func(s *Snapshot) { s.Xhat[2] = math.NaN() }},
		{"+Inf estimate", func(s *Snapshot) { s.Xhat[2] = math.Inf(1) }},
		{"-Inf estimate", func(s *Snapshot) { s.Xhat[5] = math.Inf(-1) }},
	}
	for _, tc := range cases {
		sn := sampleSnapshots(rng)[0]
		tc.mut(sn)
		blob, err := encode(sn)
		if err != nil {
			t.Fatalf("%s: unchecked encode: %v", tc.name, err)
		}
		if _, err := Decode(blob); err == nil {
			t.Errorf("%s: Decode accepted the blob", tc.name)
		}
		if _, err := Encode(sn); err == nil {
			t.Errorf("%s: Encode accepted a snapshot Decode rejects", tc.name)
		}
	}
	// Without a strategy there is nothing to write; Encode still refuses.
	for _, rec := range []*registry.Record{nil, {Operator: "Identity"}} {
		sn := sampleSnapshots(rng)[0]
		sn.Record = rec
		if _, err := Encode(sn); err == nil {
			t.Errorf("record %+v: encoded without error", rec)
		}
	}
}

// TestDecodeRejectsBadVersion: a structurally valid blob with a version
// outside [1, 2] is rejected on the version check, not the CRC.
func TestDecodeRejectsBadVersion(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	blob, err := Encode(sampleSnapshots(rng)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{0, codecVersion + 1, 0xffff} {
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint16(mut[len(codecMagic):], v)
		if _, err := Decode(reseal(mut)); err == nil || !strings.Contains(err.Error(), "unsupported format version") {
			t.Errorf("version %d: err = %v, want a version rejection", v, err)
		}
	}
}

// TestDecodeV1ChecksMeasurement: a version 1 blob's measurement y is
// dropped, but only after v1's checks: an empty y or a NaN/Inf in it (valid
// IEEE bits, so the CRC alone cannot catch a snapshot written from
// poisoned state) is rejected as version 1 rejected it.
func TestDecodeV1ChecksMeasurement(t *testing.T) {
	snaps, ys := sampleFixtures(rand.New(rand.NewPCG(11, 12)))
	sn, y := snaps[0], ys[0]
	if _, err := Decode(encodeV1(t, sn, y)); err != nil {
		t.Fatalf("clean v1 blob: %v", err)
	}
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]float64(nil), y...)
		bad[2] = poison
		if _, err := Decode(encodeV1(t, sn, bad)); err == nil || !strings.Contains(err.Error(), "measurement") {
			t.Errorf("v1 blob with y[2]=%v: err = %v, want a measurement rejection", poison, err)
		}
	}
	if _, err := Decode(encodeV1(t, sn, nil)); err == nil || !strings.Contains(err.Error(), "measurement") {
		t.Errorf("v1 blob with empty y: err = %v, want a measurement rejection", err)
	}
}
