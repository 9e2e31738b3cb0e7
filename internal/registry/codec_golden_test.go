package registry

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/binfmt"
)

// goldenKinds names the committed HDMMSTRG blobs under testdata, one per
// strategy kind, in sampleRecords order.
var goldenKinds = []string{"identity", "kron", "union", "marginal"}

// TestCodecGolden pins the HDMMSTRG format byte for byte: the fixtures
// from sampleRecords(PCG(1, 2)) must encode to the committed blobs, and
// each blob must decode and re-encode to itself. A codec edit that moves
// one byte of the format fails here.
func TestCodecGolden(t *testing.T) {
	recs := sampleRecords(rand.New(rand.NewPCG(1, 2)))
	for i, kind := range goldenKinds {
		golden, err := os.ReadFile(filepath.Join("testdata", kind+".hdmmstrg"))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Encode(recs[i])
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		if !bytes.Equal(blob, golden) {
			t.Errorf("%s: Encode output differs from the golden blob", kind)
		}
		rec, err := Decode(golden)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", kind, err)
		}
		again, err := Encode(rec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", kind, err)
		}
		if !bytes.Equal(again, golden) {
			t.Errorf("%s: golden blob does not re-encode to itself", kind)
		}
	}
}

// reseal replaces a blob's CRC-32 trailer with the checksum of the bytes
// before it, so an edited payload reaches the parser instead of failing
// the checksum.
func reseal(b []byte) []byte {
	body := b[: len(b)-4 : len(b)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestDecodeHugeUnionCountAllocatesLittle: a blob may be rejected, but an
// unvalidated count in it must never size an allocation. This 32-byte
// blob has a valid checksum and claims 2^26 union parts with no payload
// behind them; rejecting it must not cost more than a megabyte.
func TestDecodeHugeUnionCountAllocatesLittle(t *testing.T) {
	b := []byte(codecMagic)
	b = binary.LittleEndian.AppendUint16(b, codecVersion)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, '+')
	b = binary.LittleEndian.AppendUint64(b, 0) // err = 0.0
	b = append(b, kindUnion)
	b = binary.LittleEndian.AppendUint32(b, binfmt.MaxCount)
	b = reseal(append(b, 0, 0, 0, 0))
	if len(b) != 32 {
		t.Fatalf("crafted blob is %d bytes, want 32", len(b))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("union blob with no parts decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting a 32-byte blob allocated %d bytes", grew)
	}
}

// FuzzDecode: Decode never panics, and any input it accepts re-encodes to
// exactly the same bytes (HDMMSTRG has one encoding per record, so an
// accepted blob that re-encodes differently is one Encode never writes),
// except a stored one-part union, which decodes as its Kronecker part and
// must re-encode to a kron blob that decodes to an equal record.
// Each input is tried as given and resealed with a fresh checksum, so
// mutations reach the payload parser rather than stopping at the CRC.
// The seeds under testdata/fuzz are the golden blobs plus a truncated and
// a bit-flipped copy of each, and a one-part and a three-part union.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= 4 {
			inputs = append(inputs, reseal(b))
		}
		for _, in := range inputs {
			rec, err := Decode(in)
			if err != nil {
				continue
			}
			again, err := Encode(rec)
			if err != nil {
				t.Fatalf("accepted blob does not re-encode: %v", err)
			}
			if storedKind(in) != kindUnion || storedKind(again) != kindKron {
				if !bytes.Equal(again, in) {
					t.Fatalf("accepted %d-byte blob re-encodes to %d different bytes", len(in), len(again))
				}
				continue
			}
			back, err := Decode(again)
			if err != nil {
				t.Fatalf("one-part union re-encodes to a kron blob Decode rejects: %v", err)
			}
			recordsEqual(t, rec, back)
		}
	})
}

// storedKind returns the strategy kind byte of a blob Decode accepted: it
// follows the magic, the version, the operator string and the error.
func storedKind(b []byte) byte {
	off := len(codecMagic) + 2
	return b[off+4+int(binary.LittleEndian.Uint32(b[off:]))+8]
}
