// Package binfmt is the wire core of the daemon's two on-disk formats,
// HDMMSTRG (internal/registry) and HDMMSNAP (internal/snapshot). Both are
// one frame:
//
//	magic   [len(magic)]byte
//	version u16
//	payload            format-specific, written with Writer
//	crc     u32        CRC-32 (IEEE) of every preceding byte
//
// All integers are little endian and floats are raw IEEE-754 bits, so
// every value round-trips bit-exactly. Strings and blobs carry a u32
// length prefix; float vectors carry none (the format writes its own count
// where it needs one).
//
// The Reader is bounds-checked with a latched error: the first short read
// or out-of-range length sets Err and every later read returns zero, so a
// format can decode a whole section and check Err once. Every length is
// bounded by MaxCount and by the bytes actually present before anything
// is allocated from it, so a corrupted blob costs an error, never a panic
// or a huge allocation. Errors carry no format prefix; each codec wraps
// them with its own.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// MaxCount bounds every length field, in both directions: formats refuse
// to write a count above it and the Reader refuses to read one.
const MaxCount = 1 << 26

// Writer appends one frame to a byte buffer.
type Writer struct{ buf []byte }

// NewWriter starts a frame with magic and version. size is the capacity
// to allocate up front; a format that knows its exact length passes it so
// the buffer is never regrown.
func NewWriter(magic string, version uint16, size int) *Writer {
	buf := append(make([]byte, 0, size), magic...)
	return &Writer{buf: binary.LittleEndian.AppendUint16(buf, version)}
}

func (w *Writer) U8(v uint8)    { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s writes the floats of v with no length prefix.
func (w *Writer) F64s(v []float64) {
	for _, x := range v {
		w.F64(x)
	}
}

// Str writes a u32 length and then the bytes of s.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob writes a u32 length and then b.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Seal appends the CRC-32 of every byte written so far and returns the
// finished frame.
func (w *Writer) Seal() []byte {
	w.U32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// Reader decodes the payload of one frame; see the package comment for
// its error discipline.
type Reader struct {
	buf []byte // the frame without its CRC trailer
	off int
	err error
}

// Open checks a frame's minimum length, magic, checksum and version (any
// in [minVersion, maxVersion]), in that order, and returns a Reader
// positioned after the version field and the version it found.
func Open(b []byte, magic string, minVersion, maxVersion uint16) (Reader, uint16, error) {
	if len(b) < len(magic)+2+4 {
		return Reader{}, 0, fmt.Errorf("blob too short (%d bytes)", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return Reader{}, 0, errors.New("bad magic")
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return Reader{}, 0, errors.New("checksum mismatch (corrupted blob)")
	}
	v := binary.LittleEndian.Uint16(body[len(magic):])
	if v < minVersion || v > maxVersion {
		return Reader{}, 0, fmt.Errorf("unsupported format version %d", v)
	}
	return Reader{buf: body, off: len(magic) + 2}, v, nil
}

// Err is the first read error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining is the number of payload bytes not yet read.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// take returns the next n bytes, latching a truncation error if they are
// not all present. After any error it returns nil.
func (r *Reader) take(n int) []byte {
	if r.err == nil && r.Remaining() < n {
		r.err = fmt.Errorf("truncated blob (need %d bytes at offset %d, have %d)", n, r.off, r.Remaining())
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	if b := r.take(1); r.err == nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.take(4); r.err == nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.take(8); r.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 count and latches an error naming what unless it lies
// in [lo, hi]. It returns 0 after any error, so a loop over the count
// does not run.
func (r *Reader) Count(lo, hi int, what string) int { return r.bounded(uint64(r.U32()), lo, hi, what) }

// Count64 is Count for a u64 field.
func (r *Reader) Count64(lo, hi int, what string) int { return r.bounded(r.U64(), lo, hi, what) }

func (r *Reader) bounded(v uint64, lo, hi int, what string) int {
	if r.err == nil && (v < uint64(lo) || v > uint64(hi)) {
		r.err = fmt.Errorf("invalid %s %d", what, v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// F64s reads n floats written by Writer.F64s. Any n in [0, MaxCount]
// whose bytes are present is accepted; the vector is allocated only after
// its bytes are known to be there.
func (r *Reader) F64s(n int) []float64 {
	if r.err == nil && (n < 0 || n > MaxCount) {
		r.err = fmt.Errorf("invalid float vector length %d", n)
	}
	b := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Str reads a string written by Writer.Str.
func (r *Reader) Str() string { return string(r.section("string")) }

// Blob reads a byte section written by Writer.Blob. The result aliases the
// frame.
func (r *Reader) Blob() []byte { return r.section("blob") }

func (r *Reader) section(what string) []byte {
	n := int(r.U32())
	if r.err == nil && (n < 0 || n > MaxCount) {
		r.err = fmt.Errorf("invalid %s length %d", what, n)
	}
	return r.take(n)
}
