package server

// The daemon's JSON codec for its two hot request bodies (RegisterRequest,
// AnswerRequest) and its one hot response (AnswerResponse). A registration
// body carries the whole data vector — 500,480 cells for the CPH schema, a
// megabyte of JSON — and decoding it with encoding/json's reflection cost
// several times what a byte scanner does. Everything else the daemon reads
// or writes (RegisterResponse, engine info, /metrics, errors) is small or
// cold and stays on encoding/json.
//
// The codec accepts and rejects exactly the inputs encoding/json's Decoder
// does with DisallowUnknownFields, and fills the structs with the same
// values, bit for bit; FuzzDecode holds it to that against the reflective
// decoder. That means keeping encoding/json's quirks: keys match a field
// exactly or case-insensitively under Unicode simple folding, the last of
// duplicate keys wins, null leaves a number or string unchanged and sets a
// slice to nil, a slice decoded again reuses its backing array, and
// strings coerce invalid UTF-8 and lone surrogates to U+FFFD. The one
// deliberate difference is trailing data: only whitespace may follow the
// document, where the Decoder-based check let a stray ']' or '}' through.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// errTrailingData rejects a body with anything but whitespace after its
// JSON document.
var errTrailingData = errors.New("request body has trailing data after the JSON document")

// decodeJSON fills req from a registration body.
func (req *RegisterRequest) decodeJSON(body []byte) error {
	return decodeDocument(body, registerFields, func(s *jsonScanner, field string) error {
		switch field {
		case "domain":
			return decodeSlice(s, &req.Domain, (*jsonScanner).intValue, false)
		case "queries":
			return decodeSlice(s, &req.Queries, (*jsonScanner).stringValue, false)
		case "data":
			return decodeSlice(s, &req.Data, (*jsonScanner).floatValue, true)
		case "records":
			return decodeSlice(s, &req.Records, func(s *jsonScanner, rec *[]int) error {
				return decodeSlice(s, rec, (*jsonScanner).intValue, false)
			}, false)
		case "eps":
			return s.floatValue(&req.Eps)
		case "delta":
			return s.floatValue(&req.Delta)
		case "seed":
			return s.uintValue(&req.Seed)
		case "restarts":
			return s.intValue(&req.Restarts)
		default: // "opt_seed"
			return s.uintValue(&req.OptSeed)
		}
	})
}

// decodeJSON fills req from an answer body.
func (req *AnswerRequest) decodeJSON(body []byte) error {
	return decodeDocument(body, answerFields, func(s *jsonScanner, _ string) error {
		return decodeSlice(s, &req.Queries, (*jsonScanner).stringValue, false)
	})
}

// fieldSet resolves object keys to a struct's JSON field names the way
// encoding/json does: an exact match first, else a match under folding.
type fieldSet struct {
	names  []string
	folded []string
}

// The json tags of RegisterRequest and AnswerRequest.
var (
	registerFields = newFieldSet("domain", "queries", "data", "records", "eps", "delta", "seed", "restarts", "opt_seed")
	answerFields   = newFieldSet("queries")
)

func newFieldSet(names ...string) *fieldSet {
	fs := &fieldSet{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(appendFolded(nil, []byte(n))))
	}
	return fs
}

// lookup returns the field name key selects, or "" for an unknown key.
func (fs *fieldSet) lookup(key []byte) string {
	for _, n := range fs.names {
		if string(key) == n {
			return n
		}
	}
	var buf [32]byte
	k := appendFolded(buf[:0], key)
	for i, f := range fs.folded {
		if string(k) == f {
			return fs.names[i]
		}
	}
	return ""
}

// appendFolded appends in with every rune replaced by the smallest rune of
// its simple-fold orbit (ASCII letters by their upper case), the key
// folding encoding/json matches fields under: "ſeed" folds like "SEED".
func appendFolded(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// jsonScanner is a validating cursor over one JSON document. Each method
// consumes one value of the Go type it fills and rejects any other JSON
// value, so a document is never scanned twice and nothing the target
// types cannot hold is ever buffered.
type jsonScanner struct {
	b   []byte
	pos int
}

// decodeDocument decodes body as one JSON object (or null) into the
// fields of fs, calling member to consume each field's value. Only
// whitespace may surround the document.
func decodeDocument(body []byte, fs *fieldSet, member func(s *jsonScanner, field string) error) error {
	s := &jsonScanner{b: body}
	s.skipSpace()
	if err := s.object(fs, member); err != nil {
		return err
	}
	s.skipSpace()
	if s.pos < len(s.b) {
		return errTrailingData
	}
	return nil
}

func (s *jsonScanner) skipSpace() {
	if s.pos < len(s.b) && s.b[s.pos] > ' ' {
		return // the common case: no whitespace at all
	}
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// errorf reports a problem at the cursor.
func (s *jsonScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the cursor (or the end of the input) as
// not what the grammar or the target type allows.
func (s *jsonScanner) unexpected(want string) error {
	if s.pos >= len(s.b) {
		return s.errorf("unexpected end of JSON input, want %s", want)
	}
	return s.errorf("invalid character %q, want %s", s.b[s.pos], want)
}

// consume advances past c if it is the next byte.
func (s *jsonScanner) consume(c byte) bool {
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (s *jsonScanner) null() (bool, error) {
	if s.pos >= len(s.b) || s.b[s.pos] != 'n' {
		return false, nil
	}
	if !bytes.HasPrefix(s.b[s.pos:], []byte("null")) {
		return false, s.unexpected("null")
	}
	s.pos += 4
	return true, nil
}

// object consumes an object, or null, which leaves the fields unchanged.
func (s *jsonScanner) object(fs *fieldSet, member func(s *jsonScanner, field string) error) error {
	if isNull, err := s.null(); isNull || err != nil {
		return err
	}
	if !s.consume('{') {
		return s.unexpected("an object")
	}
	s.skipSpace()
	if s.consume('}') {
		return nil
	}
	for {
		s.skipSpace()
		key, err := s.stringBytes()
		if err != nil {
			return err
		}
		field := fs.lookup(key)
		if field == "" {
			return fmt.Errorf("unknown field %q", key)
		}
		s.skipSpace()
		if !s.consume(':') {
			return s.unexpected("':' after an object key")
		}
		s.skipSpace()
		if err := member(s, field); err != nil {
			return fmt.Errorf("field %q: %w", field, err)
		}
		s.skipSpace()
		if s.consume('}') {
			return nil
		}
		if !s.consume(',') {
			return s.unexpected("',' or '}' after an object member")
		}
	}
}

// decodeSlice consumes an array into *dst with elem, or null, which sets
// *dst to nil. Like encoding/json it decodes into *dst's existing backing
// array: a null element keeps whatever that slot held, and an empty array
// yields a fresh empty slice. With hint, a nil *dst is first sized from a
// count of the commas before the next ']' — at most one element per two
// bytes of the body, so a hostile body cannot make it larger than a valid
// body of the same length would.
func decodeSlice[T any](s *jsonScanner, dst *[]T, elem func(*jsonScanner, *T) error, hint bool) error {
	if isNull, err := s.null(); isNull || err != nil {
		if isNull {
			*dst = nil
		}
		return err
	}
	if !s.consume('[') {
		return s.unexpected("an array")
	}
	v := *dst
	if hint && cap(v) == 0 {
		v = make([]T, 0, s.arrayLenHint())
	}
	s.skipSpace()
	i := 0
	if !s.consume(']') {
		for {
			s.skipSpace()
			if i < cap(v) {
				v = v[:i+1]
			} else {
				var zero T
				v = append(v, zero)
			}
			if err := elem(s, &v[i]); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
			i++
			s.skipSpace()
			if s.consume(']') {
				break
			}
			if !s.consume(',') {
				return s.unexpected("',' or ']' after an array element")
			}
		}
	}
	if i == 0 {
		v = []T{}
	}
	*dst = v[:i]
	return nil
}

// arrayLenHint bounds the length of the flat array starting at the cursor
// by the commas before the next ']'.
func (s *jsonScanner) arrayLenHint() int {
	rest := s.b[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{','})+1, len(rest)/2+1)
}

// number consumes a number literal, checking the JSON grammar that
// strconv's parsers are laxer than (no '+', leading zeros, hex, Inf, NaN
// or underscores).
func (s *jsonScanner) number() ([]byte, error) {
	b, i := s.b, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, _ = s.digits(i)
	default:
		s.pos = i
		return nil, s.unexpected("a number")
	}
	var err error
	if i < len(b) && b[i] == '.' {
		if i, err = s.digits(i + 1); err != nil {
			return nil, err
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, err = s.digits(i); err != nil {
			return nil, err
		}
	}
	lit := b[s.pos:i]
	s.pos = i
	return lit, nil
}

// digits scans one or more decimal digits from b[i:] and returns the
// index past them.
func (s *jsonScanner) digits(i int) (int, error) {
	start := i
	for i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9' {
		i++
	}
	if i == start {
		s.pos = i
		return i, s.unexpected("a digit")
	}
	return i, nil
}

// smallUint consumes an unsigned integer literal of at most 15 digits if
// one is next — the bulk of a histogram's cells — and leaves anything else
// (a sign, a fraction, an exponent, a longer or malformed literal, null) to
// the general path. Every such integer is below 2^53, so float64(u) has
// the bits strconv.ParseFloat would return.
func (s *jsonScanner) smallUint() (uint64, bool) {
	b, i := s.b, s.pos
	var u uint64
	for end := min(len(b), i+15); i < end && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	if i == s.pos || (b[s.pos] == '0' && i > s.pos+1) {
		return 0, false
	}
	if i < len(b) {
		switch b[i] {
		case '.', 'e', 'E', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			return 0, false
		}
	}
	s.pos = i
	return u, true
}

// floatValue consumes a number into *p, or null, which leaves *p unchanged.
func (s *jsonScanner) floatValue(p *float64) error {
	if u, ok := s.smallUint(); ok {
		*p = float64(u)
		return nil
	}
	if isNull, err := s.null(); isNull || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("number %s does not fit a float64", lit)
	}
	*p = f
	return nil
}

// intValue consumes an integer into *p, or null, which leaves *p unchanged.
func (s *jsonScanner) intValue(p *int) error {
	if u, ok := s.smallUint(); ok {
		if u > math.MaxInt { // only where int has 32 bits
			return fmt.Errorf("number %d is not an int", u)
		}
		*p = int(u)
		return nil
	}
	if isNull, err := s.null(); isNull || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("number %s is not an int", lit)
	}
	*p = int(n)
	return nil
}

// uintValue consumes a non-negative integer into *p, or null, which leaves
// *p unchanged.
func (s *jsonScanner) uintValue(p *uint64) error {
	if u, ok := s.smallUint(); ok {
		*p = u
		return nil
	}
	if isNull, err := s.null(); isNull || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return fmt.Errorf("number %s is not a uint64", lit)
	}
	*p = n
	return nil
}

// stringValue consumes a string into *p, or null, which leaves *p unchanged.
func (s *jsonScanner) stringValue(p *string) error {
	if isNull, err := s.null(); isNull || err != nil {
		return err
	}
	b, err := s.stringBytes()
	if err != nil {
		return err
	}
	*p = string(b)
	return nil
}

// stringBytes consumes a string literal and returns its value: the bytes
// between the quotes when there is nothing to unescape, else a new slice.
func (s *jsonScanner) stringBytes() ([]byte, error) {
	if !s.consume('"') {
		return nil, s.unexpected("a string")
	}
	start := s.pos
	for {
		if s.pos >= len(s.b) {
			return nil, s.unexpected("the end of a string")
		}
		switch c := s.b[s.pos]; {
		case c == '"':
			raw := s.b[start:s.pos]
			s.pos++
			if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
				return raw, nil
			}
			return unescape(raw), nil
		case c == '\\':
			s.pos++
			if s.pos >= len(s.b) {
				return nil, s.unexpected("an escape")
			}
			switch s.b[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for range 4 {
					if s.pos >= len(s.b) || unhex(s.b[s.pos]) < 0 {
						return nil, s.unexpected("a hex digit in a \\u escape")
					}
					s.pos++
				}
			default:
				return nil, s.unexpected("an escape")
			}
		case c < ' ':
			return nil, s.unexpected("a string character (control characters must be escaped)")
		default:
			s.pos++
		}
	}
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the four hex digits after a "\u" at raw[i:], or returns -1
// when raw[i:] does not start with a \u escape.
func u4(raw []byte, i int) rune {
	if i+6 > len(raw) || raw[i] != '\\' || raw[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range raw[i+2 : i+6] {
		r = r<<4 | unhex(c)
	}
	return r
}

// unescape decodes the body of a string literal stringBytes has
// validated, as encoding/json does: a surrogate pair escape becomes its
// rune, and a lone surrogate and each byte of invalid UTF-8 become U+FFFD.
func unescape(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch raw[i+1] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := u4(raw, i)
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, u4(raw, i)); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default: // '"', '\\', '/'
				out = append(out, raw[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// appendAnswers appends resp exactly as json.Encoder with
// SetEscapeHTML(false) writes it, trailing newline included. A batch's
// duplicate queries share one answer slice (AnswerSharedCtx), so each
// shared slice is formatted once and its bytes copied.
func appendAnswers(b []byte, resp *AnswerResponse) ([]byte, error) {
	if resp.Answers == nil {
		return append(b, "{\"answers\":null}\n"...), nil
	}
	b = append(b, `{"answers":[`...)
	type span struct{ n, start, end int }
	done := make(map[*float64]span)
	for i, row := range resp.Answers {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		if len(row) > 0 {
			if sp, ok := done[&row[0]]; ok && sp.n == len(row) {
				b = append(b, b[sp.start:sp.end]...)
				continue
			}
		}
		start := len(b)
		b = append(b, '[')
		for j, f := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, f); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
		if len(row) > 0 {
			done[&row[0]] = span{len(row), start, len(b)}
		}
	}
	return append(b, "]}\n"...), nil
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// round-trips, in 'f' form unless the magnitude is below 1e-6 or at least
// 1e21, with an exponent of e-07 written e-7. JSON has no non-finite
// numbers, so ±Inf and NaN are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
