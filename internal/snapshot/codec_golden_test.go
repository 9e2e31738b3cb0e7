package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// goldenNames names the committed HDMMSNAP blobs under testdata, in
// sampleSnapshots order.
var goldenNames = []string{"identity", "kron"}

// TestCodecGolden pins the HDMMSNAP format byte for byte: the fixtures
// from sampleSnapshots(PCG(1, 2)) must encode to the committed blobs, and
// each blob must decode and re-encode to itself. A codec edit that moves
// one byte of the format fails here.
func TestCodecGolden(t *testing.T) {
	snaps := sampleSnapshots(rand.New(rand.NewPCG(1, 2)))
	for i, name := range goldenNames {
		golden, err := os.ReadFile(filepath.Join("testdata", name+".hdmmsnap"))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Encode(snaps[i])
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(blob, golden) {
			t.Errorf("%s: Encode output differs from the golden blob", name)
		}
		sn, err := Decode(golden)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", name, err)
		}
		again, err := Encode(sn)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, golden) {
			t.Errorf("%s: golden blob does not re-encode to itself", name)
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

// FuzzDecode: Decode never panics, and any input it accepts re-encodes to
// exactly the same bytes. Each input is tried as given and resealed with
// a fresh checksum, so mutations reach the payload parser rather than
// stopping at the CRC. The seeds under testdata/fuzz are the golden blobs
// plus a truncated and a bit-flipped copy of each.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= 4 {
			inputs = append(inputs, reseal(b))
		}
		for _, in := range inputs {
			sn, err := Decode(in)
			if err != nil {
				continue
			}
			again, err := Encode(sn)
			if err != nil {
				t.Fatalf("accepted blob does not re-encode: %v", err)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("accepted %d-byte blob re-encodes to %d different bytes", len(in), len(again))
			}
		}
	})
}
