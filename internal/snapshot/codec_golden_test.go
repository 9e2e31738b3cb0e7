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
// sampleFixtures order. NAME-v2.hdmmsnap is what Encode writes;
// NAME-v1.hdmmsnap is the same fixture in the read-only version 1 layout,
// captured before version 2 existed and never regenerated.
var goldenNames = []string{"identity", "kron"}

// TestCodecGolden pins the HDMMSNAP format byte for byte. The fixtures
// from sampleFixtures(PCG(1, 2)) must encode to the v2 blobs, and each v2
// blob must decode and re-encode to itself. Each v1 blob must decode to
// the same fixture and re-encode to exactly the v2 blob, and encodeV1 must
// rebuild it, so the v1 blobs tests write are the format as it was
// persisted. A codec edit that moves one byte of either version fails here.
func TestCodecGolden(t *testing.T) {
	snaps, ys := sampleFixtures(rand.New(rand.NewPCG(1, 2)))
	for i, name := range goldenNames {
		v1, err := os.ReadFile(filepath.Join("testdata", name+"-v1.hdmmsnap"))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := os.ReadFile(filepath.Join("testdata", name+"-v2.hdmmsnap"))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Encode(snaps[i])
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(blob, v2) {
			t.Errorf("%s: Encode output differs from the v2 golden blob", name)
		}
		if !bytes.Equal(encodeV1(t, snaps[i], ys[i]), v1) {
			t.Errorf("%s: encodeV1 output differs from the v1 golden blob", name)
		}
		for _, golden := range []struct {
			version string
			blob    []byte
		}{{"v2", v2}, {"v1", v1}} {
			sn, err := Decode(golden.blob)
			if err != nil {
				t.Fatalf("%s %s: decode golden: %v", name, golden.version, err)
			}
			snapshotsEqual(t, snaps[i], sn)
			again, err := Encode(sn)
			if err != nil {
				t.Fatalf("%s %s: re-encode: %v", name, golden.version, err)
			}
			if !bytes.Equal(again, v2) {
				t.Errorf("%s: %s golden blob does not re-encode to the v2 golden", name, golden.version)
			}
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

// FuzzDecode: Decode never panics; an accepted v2 blob re-encodes to
// exactly the same bytes, and an accepted v1 blob re-encodes to a v2 blob
// that decodes to an equal snapshot. Each input is tried as given and
// resealed with a fresh checksum, so mutations reach the payload parser
// rather than stopping at the CRC. The seeds under testdata/fuzz are the
// golden blobs of both versions plus a truncated and a bit-flipped copy
// of each.
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
			if binary.LittleEndian.Uint16(in[len(codecMagic):]) == codecVersion {
				if !bytes.Equal(again, in) {
					t.Fatalf("accepted %d-byte v2 blob re-encodes to %d different bytes", len(in), len(again))
				}
				continue
			}
			back, err := Decode(again)
			if err != nil {
				t.Fatalf("v1 blob re-encodes to a v2 blob Decode rejects: %v", err)
			}
			snapshotsEqual(t, sn, back)
		}
	})
}
