package registry

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/kron"
	"repro/internal/marginals"
	"repro/internal/mat"
)

// randTheta fills a p×n matrix with non-negative parameters.
func randTheta(rng *rand.Rand, p, n int) *mat.Dense {
	m := mat.NewDense(p, n)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64()
	}
	return m
}

// sampleRecords returns one record per strategy kind, with randomized
// parameters so repeated trials cover many float bit patterns.
func sampleRecords(rng *rand.Rand) []*Record {
	kron := core.NewKronStrategy(
		core.NewPIdentity(randTheta(rng, 1+rng.IntN(3), 2+rng.IntN(6))),
		core.NewPIdentity(randTheta(rng, 1+rng.IntN(3), 2+rng.IntN(6))),
	)
	union := &core.UnionStrategy{
		Parts: []*core.KronStrategy{
			core.NewKronStrategy(core.NewPIdentity(randTheta(rng, 2, 5))),
			core.NewKronStrategy(core.NewPIdentity(randTheta(rng, 1, 5))),
		},
		Shares: []float64{0.75, 0.25},
		Groups: [][]int{{0, 2}, {1}},
	}
	space := marginals.NewSpace([]int{2, 3, 4})
	theta := make([]float64, space.NumSubsets())
	for i := range theta {
		theta[i] = rng.Float64()
	}
	marg := core.NewMarginalStrategy(space, theta)
	return []*Record{
		{Strategy: &core.IdentityStrategy{N: 1 + rng.IntN(100)}, Err: rng.Float64() * 100, Operator: "Identity"},
		{Strategy: kron, Err: rng.Float64() * 100, Operator: "OPT⊗"},
		{Strategy: union, Err: rng.Float64() * 100, Operator: "OPT+"},
		{Strategy: marg, Err: rng.Float64() * 100, Operator: "OPT_M"},
	}
}

// recordsEqual compares two records structurally, bit-exact on all floats.
func recordsEqual(t *testing.T, a, b *Record) {
	t.Helper()
	if a.Operator != b.Operator || a.Err != b.Err {
		t.Fatalf("metadata mismatch: (%q, %v) vs (%q, %v)", a.Operator, a.Err, b.Operator, b.Err)
	}
	switch sa := a.Strategy.(type) {
	case *core.IdentityStrategy:
		sb, ok := b.Strategy.(*core.IdentityStrategy)
		if !ok || sa.N != sb.N {
			t.Fatalf("identity mismatch: %#v vs %#v", a.Strategy, b.Strategy)
		}
	case *core.KronStrategy:
		sb, ok := b.Strategy.(*core.KronStrategy)
		if !ok {
			t.Fatalf("kind mismatch: %T vs %T", a.Strategy, b.Strategy)
		}
		kronEqual(t, sa, sb)
	case *core.UnionStrategy:
		sb, ok := b.Strategy.(*core.UnionStrategy)
		if !ok || len(sa.Parts) != len(sb.Parts) {
			t.Fatalf("union mismatch: %T vs %T", a.Strategy, b.Strategy)
		}
		for i := range sa.Parts {
			kronEqual(t, sa.Parts[i], sb.Parts[i])
		}
		if !floatsEqual(sa.Shares, sb.Shares) {
			t.Fatalf("shares mismatch: %v vs %v", sa.Shares, sb.Shares)
		}
		if len(sa.Groups) != len(sb.Groups) {
			t.Fatalf("groups mismatch")
		}
		for i := range sa.Groups {
			if len(sa.Groups[i]) != len(sb.Groups[i]) {
				t.Fatalf("group %d length mismatch", i)
			}
			for j := range sa.Groups[i] {
				if sa.Groups[i][j] != sb.Groups[i][j] {
					t.Fatalf("group %d index %d mismatch", i, j)
				}
			}
		}
	case *core.MarginalStrategy:
		sb, ok := b.Strategy.(*core.MarginalStrategy)
		if !ok {
			t.Fatalf("kind mismatch: %T vs %T", a.Strategy, b.Strategy)
		}
		if !intsEqual(sa.Space.Sizes(), sb.Space.Sizes()) {
			t.Fatalf("marginal sizes mismatch: %v vs %v", sa.Space.Sizes(), sb.Space.Sizes())
		}
		if !floatsEqual(sa.Theta, sb.Theta) {
			t.Fatalf("theta mismatch")
		}
	default:
		t.Fatalf("unhandled strategy kind %T", a.Strategy)
	}
}

func kronEqual(t *testing.T, a, b *core.KronStrategy) {
	t.Helper()
	if len(a.Subs) != len(b.Subs) {
		t.Fatalf("factor count mismatch: %d vs %d", len(a.Subs), len(b.Subs))
	}
	for i := range a.Subs {
		pa, na := a.Subs[i].Theta.Dims()
		pb, nb := b.Subs[i].Theta.Dims()
		if pa != pb || na != nb {
			t.Fatalf("factor %d shape mismatch", i)
		}
		if !floatsEqual(a.Subs[i].Theta.Data(), b.Subs[i].Theta.Data()) {
			t.Fatalf("factor %d Θ bits mismatch", i)
		}
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // bit-exact for the codec's round-trip contract
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
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

// TestCodecRoundTrip: every strategy kind must encode → decode to a
// structurally identical record with bit-exact floats, and re-encoding the
// decoded record must reproduce the blob byte-identically.
func TestCodecRoundTrip(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xc0dec))
		for _, rec := range sampleRecords(rng) {
			blob, err := Encode(rec)
			if err != nil {
				t.Fatalf("trial %d %s: encode: %v", trial, rec.Operator, err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatalf("trial %d %s: decode: %v", trial, rec.Operator, err)
			}
			recordsEqual(t, rec, got)
			blob2, err := Encode(got)
			if err != nil {
				t.Fatalf("trial %d %s: re-encode: %v", trial, rec.Operator, err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("trial %d %s: re-encoded blob differs", trial, rec.Operator)
			}
		}
	}
}

// TestCodecRejectsTruncation: every proper prefix of a valid blob must be
// rejected with an error — never a panic, never a silent success.
func TestCodecRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, rec := range sampleRecords(rng) {
		blob, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(blob); n++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic decoding %d-byte truncation: %v", rec.Operator, n, r)
					}
				}()
				if _, err := Decode(blob[:n]); err == nil {
					t.Fatalf("%s: %d-byte truncation decoded without error", rec.Operator, n)
				}
			}()
		}
	}
}

// TestCodecRejectsCorruption: flipping any single byte must be rejected
// (the checksum catches all single-byte corruptions) without panicking.
func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, rec := range sampleRecords(rng) {
		blob, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic decoding blob with byte %d flipped: %v", rec.Operator, i, r)
					}
				}()
				if _, err := Decode(mut); err == nil {
					t.Fatalf("%s: corrupted byte %d decoded without error", rec.Operator, i)
				}
			}()
		}
	}
}

// TestCodecRejectsGarbage: random byte strings must never decode or panic.
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

// TestDecodeRejectsBadShareSum: a union blob whose budget shares do not
// sum to 1 violates the Σβ = 1 invariant behind Sensitivity() == 1 —
// accepting it would silently under-calibrate the noise.
func TestDecodeRejectsBadShareSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	bad := &Record{
		Strategy: &core.UnionStrategy{
			Parts: []*core.KronStrategy{
				core.NewKronStrategy(core.NewPIdentity(randTheta(rng, 1, 4))),
				core.NewKronStrategy(core.NewPIdentity(randTheta(rng, 1, 4))),
			},
			Shares: []float64{0.9, 0.9}, // each valid alone, sum is not 1
			Groups: [][]int{{0}, {1}},
		},
		Err:      1,
		Operator: "OPT+",
	}
	blob, err := Encode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob); err == nil {
		t.Fatal("union with Σβ = 1.8 decoded without error")
	}
}

// TestDecodeRejectsUnnormalizedMarginal: marginal weights must sum to 1
// (the invariant behind Sensitivity() == 1); an unnormalized blob is a
// privacy hazard and must be rejected.
func TestDecodeRejectsUnnormalizedMarginal(t *testing.T) {
	space := marginals.NewSpace([]int{2, 3})
	theta := make([]float64, space.NumSubsets())
	for i := range theta {
		theta[i] = 0.5 // Σθ = 2
	}
	bad := &Record{
		Strategy: &core.MarginalStrategy{Space: space, Theta: theta},
		Err:      1,
		Operator: "OPT_M",
	}
	blob, err := Encode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob); err == nil {
		t.Fatal("marginal strategy with Σθ = 2 decoded without error")
	}
}

// TestEncodeRejectsUnknownKind: only the four core strategy kinds encode.
func TestEncodeRejectsUnknownKind(t *testing.T) {
	if _, err := Encode(&Record{Strategy: nil, Operator: "?"}); err == nil {
		t.Error("nil strategy encoded without error")
	}
}

// TestDecodeRejectsBadVersionAndKind: structurally valid blobs with an
// unknown version or strategy kind are rejected (with a fresh checksum, so
// the version/kind check itself is exercised, not the CRC).
func TestDecodeRejectsBadVersionAndKind(t *testing.T) {
	blob, err := Encode(testCodecRecord())
	if err != nil {
		t.Fatal(err)
	}
	futureVersion := append([]byte(nil), blob...)
	futureVersion[len(codecMagic)] = 0xff
	if _, err := Decode(reseal(futureVersion)); err == nil {
		t.Error("future format version decoded without error")
	}
	// kind byte sits after magic+version+operator(str)+err(f64)
	kindOff := len(codecMagic) + 2 + 4 + len(testCodecRecord().Operator) + 8
	badKind := append([]byte(nil), blob...)
	badKind[kindOff] = 0x7f
	if _, err := Decode(reseal(badKind)); err == nil {
		t.Error("unknown strategy kind decoded without error")
	}
}

func testCodecRecord() *Record {
	return &Record{Strategy: &core.IdentityStrategy{N: 5}, Err: 1.5, Operator: "Identity"}
}

// TestDecodedStrategyServes: a decoded strategy is not just structurally
// equal — it must reconstruct answers bit-identically to the original.
func TestDecodedStrategyServes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, rec := range sampleRecords(rng) {
		if rec.Operator == "OPT+" {
			continue // LSMR reconstruction needs consistent group bookkeeping; covered in serve tests
		}
		blob, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		op := rec.Strategy.Operator()
		rows, _ := op.Dims()
		y := make([]float64, rows)
		for i := range y {
			y[i] = rng.Float64() * 10
		}
		ws := kron.NewWorkspace()
		a, err := rec.Strategy.Reconstruct(y, ws)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Strategy.Reconstruct(y, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !floatsEqual(a, b) {
			t.Fatalf("%s: decoded strategy reconstructs differently", rec.Operator)
		}
	}
}

// unionBlob seals a union payload laid out as Encode writes one, without
// Encode's two-part check, so tests can craft the part counts it refuses.
func unionBlob(t *testing.T, parts []*core.KronStrategy, shares []float64, groups [][]int) []byte {
	t.Helper()
	w := binfmt.NewWriter(codecMagic, codecVersion, 0)
	w.Str("OPT+")
	w.F64(2.5)
	w.U8(kindUnion)
	w.U32(uint32(len(parts)))
	for _, part := range parts {
		if err := writeKron(w, part); err != nil {
			t.Fatal(err)
		}
	}
	w.F64s(shares)
	for _, g := range groups {
		w.U32(uint32(len(g)))
		for _, idx := range g {
			w.U32(uint32(idx))
		}
	}
	return w.Seal()
}

// TestDecodeUnionPartCount: a stored union has two parts. A one-part
// union, which an earlier OPT⁺ built on one-group workloads, decodes as
// its Kronecker part, so snapshots embedding one still recover; zero and
// three parts are rejected.
func TestDecodeUnionPartCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	part := func() *core.KronStrategy {
		return core.NewKronStrategy(core.NewPIdentity(randTheta(rng, 1, 4)), core.NewPIdentity(randTheta(rng, 2, 3)))
	}
	one := part()
	rec, err := Decode(unionBlob(t, []*core.KronStrategy{one}, []float64{1}, [][]int{{0, 1}}))
	if err != nil {
		t.Fatalf("one-part union: %v", err)
	}
	if rec.Operator != "OPT+" || rec.Err != 2.5 {
		t.Fatalf("one-part union metadata = (%q, %v)", rec.Operator, rec.Err)
	}
	got, ok := rec.Strategy.(*core.KronStrategy)
	if !ok {
		t.Fatalf("one-part union decoded as %T, want *core.KronStrategy", rec.Strategy)
	}
	kronEqual(t, one, got)

	for _, tc := range []struct {
		name   string
		parts  []*core.KronStrategy
		shares []float64
		groups [][]int
	}{
		{"zero parts", nil, nil, nil},
		{"three parts", []*core.KronStrategy{part(), part(), part()}, []float64{0.5, 0.25, 0.25}, [][]int{{0}, {1}, {2}}},
	} {
		if _, err := Decode(unionBlob(t, tc.parts, tc.shares, tc.groups)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestEncodeRejectsUnionShapes: Encode writes only two-part unions with
// one group per part. A union with another part count, or with a group
// count that differs from its part count, used to encode to a blob that
// decode misread.
func TestEncodeRejectsUnionShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	part := func() *core.KronStrategy { return core.NewKronStrategy(core.NewPIdentity(randTheta(rng, 1, 4))) }
	for _, tc := range []struct {
		name string
		u    *core.UnionStrategy
	}{
		{"one part", &core.UnionStrategy{Parts: []*core.KronStrategy{part()}, Shares: []float64{1}, Groups: [][]int{{0}}}},
		{"three parts", &core.UnionStrategy{
			Parts:  []*core.KronStrategy{part(), part(), part()},
			Shares: []float64{0.5, 0.25, 0.25},
			Groups: [][]int{{0}, {1}, {2}},
		}},
		{"two parts, one group", &core.UnionStrategy{Parts: []*core.KronStrategy{part(), part()}, Shares: []float64{0.5, 0.5}, Groups: [][]int{{0, 1}}}},
		{"two parts, three groups", &core.UnionStrategy{
			Parts:  []*core.KronStrategy{part(), part()},
			Shares: []float64{0.5, 0.5},
			Groups: [][]int{{0}, {1}, {2}},
		}},
	} {
		if _, err := Encode(&Record{Strategy: tc.u, Err: 1, Operator: "OPT+"}); err == nil {
			t.Errorf("%s: encoded without error", tc.name)
		}
	}
}
