package binfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

const (
	testMagic   = "TESTFRMT"
	testVersion = 3
)

// sealed frames payload as a Writer would: magic, version, payload, CRC.
func sealed(payload []byte) []byte {
	b := append([]byte(testMagic), testVersion, 0)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func open(t *testing.T, b []byte) Reader {
	t.Helper()
	r, err := Open(b, testMagic, testVersion)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return r
}

// TestRoundTrip: every primitive reads back what the Writer wrote, floats
// bit for bit (negative zero, NaN payloads and infinities included), and
// the frame ends exactly where the payload does.
func TestRoundTrip(t *testing.T) {
	floats := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1), 1.5e-300}
	w := NewWriter(testMagic, testVersion, 0)
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(0x0123_4567_89ab_cdef)
	w.F64(math.Pi)
	w.F64s(floats)
	w.Str("héllo")
	w.Blob([]byte{1, 2, 3})
	w.Str("")
	w.U32(7)
	w.U64(MaxCount)
	blob := w.Seal()

	r := open(t, blob)
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123_4567_89ab_cdef {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	got := r.F64s(len(floats))
	for i := range floats {
		if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
			t.Errorf("F64s[%d] bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(floats[i]))
		}
	}
	if s := r.Str(); s != "héllo" {
		t.Errorf("Str = %q", s)
	}
	if b := r.Blob(); !bytes.Equal(b, []byte{1, 2, 3}) || cap(b) != 3 {
		t.Errorf("Blob = %v (cap %d), want [1 2 3] capped at its length", b, cap(b))
	}
	if s := r.Str(); s != "" {
		t.Errorf("empty Str = %q", s)
	}
	if n := r.Count(7, 7, "count"); n != 7 {
		t.Errorf("Count = %d", n)
	}
	if n := r.Count64(1, MaxCount, "count"); n != MaxCount {
		t.Errorf("Count64 = %d", n)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if n := r.Remaining(); n != 0 {
		t.Errorf("%d bytes left over", n)
	}
}

// TestWriterSizing: a Writer given its exact size never regrows.
func TestWriterSizing(t *testing.T) {
	w := NewWriter(testMagic, testVersion, len(testMagic)+2+8+4)
	w.F64(1)
	if b := w.Seal(); len(b) != cap(b) {
		t.Fatalf("length %d, capacity %d", len(b), cap(b))
	}
}

// TestOpenRejects: each frame check fails with its own error, and the
// version check is reached only by a blob whose checksum holds.
func TestOpenRejects(t *testing.T) {
	good := sealed([]byte{1, 2, 3})
	badCRC := append([]byte(nil), good...)
	badCRC[len(testMagic)+2] ^= 1
	badVersion := append([]byte(nil), good[:len(good)-4]...)
	badVersion[len(testMagic)] = 9
	badVersion = binary.LittleEndian.AppendUint32(badVersion, crc32.ChecksumIEEE(badVersion))
	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"short", good[:len(testMagic)+5], "too short"},
		{"magic", append([]byte("XESTFRMT"), good[len(testMagic):]...), "bad magic"},
		{"checksum", badCRC, "checksum mismatch"},
		{"version", badVersion, "unsupported format version 9"},
	}
	for _, tc := range cases {
		if _, err := Open(tc.blob, testMagic, testVersion); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	r := open(t, sealed(nil))
	if r.Remaining() != 0 {
		t.Errorf("empty payload has %d bytes", r.Remaining())
	}
}

// TestErrorLatches: the first failure sticks, and every later read
// returns zero without moving the offset.
func TestErrorLatches(t *testing.T) {
	r := open(t, sealed([]byte{5, 0, 0, 0, 'a', 'b'}))
	if s := r.Str(); s != "" {
		t.Errorf("truncated Str = %q", s)
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation", first)
	}
	if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.F64() != 0 {
		t.Error("read after an error returned a value")
	}
	if r.F64s(1) != nil || r.Blob() != nil || r.Count(0, 1, "count") != 0 || r.Count64(0, 1, "count") != 0 {
		t.Error("read after an error returned a value")
	}
	if r.Err() != first {
		t.Errorf("error changed from %v to %v", first, r.Err())
	}
	if r.Remaining() != 2 {
		t.Errorf("reads after the error moved the offset: %d bytes remain", r.Remaining())
	}
}

// TestLengthBounds: lengths outside [0, MaxCount] or past the end of the
// payload are rejected; a zero-length vector whose (no) bytes are present
// is not.
func TestLengthBounds(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cases := []struct {
		name string
		blob []byte
		read func(*Reader)
		want string
	}{
		{"negative vector", nil, func(r *Reader) { r.F64s(-1) }, "invalid float vector length -1"},
		{"huge vector", nil, func(r *Reader) { r.F64s(MaxCount + 1) }, "invalid float vector length"},
		{"vector past end", make([]byte, 15), func(r *Reader) { r.F64s(2) }, "truncated"},
		{"huge string", u32(MaxCount + 1), func(r *Reader) { r.Str() }, "invalid string length"},
		{"huge blob", u32(math.MaxUint32), func(r *Reader) { r.Blob() }, "invalid blob length"},
		{"blob past end", u32(3), func(r *Reader) { r.Blob() }, "truncated"},
		{"count below", u32(0), func(r *Reader) { r.Count(1, 4, "part count") }, "invalid part count 0"},
		{"count above", u32(5), func(r *Reader) { r.Count(1, 4, "part count") }, "invalid part count 5"},
		{"count64 above", binary.LittleEndian.AppendUint64(nil, math.MaxUint64), func(r *Reader) { r.Count64(1, MaxCount, "size") }, "invalid size 18446744073709551615"},
	}
	for _, tc := range cases {
		r := open(t, sealed(tc.blob))
		tc.read(&r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	r := open(t, sealed(nil))
	if v := r.F64s(0); v == nil || len(v) != 0 || r.Err() != nil {
		t.Errorf("zero-length vector: %v, err %v", v, r.Err())
	}
}
