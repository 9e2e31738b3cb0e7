package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/census"
)

// decodeOracle is the reflective decoder the codec replaced: one
// json.Decoder value with unknown fields disallowed, then More() as the
// trailing-data check. It is the reference FuzzDecode holds the codec to.
func decodeOracle(body []byte, dst any) (trailer []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return nil, err
	}
	trailer = bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")
	if dec.More() {
		return trailer, errTrailingData
	}
	return trailer, nil
}

// closerTrailer reports the one class of input the codec deliberately
// rejects and the oracle accepts: a document followed by a stray ']' or
// '}', which json.Decoder.More reports as "no more values".
func closerTrailer(trailer []byte) bool {
	return len(trailer) > 0 && (trailer[0] == ']' || trailer[0] == '}')
}

// sameFloats compares float slices by bits (so -0 and +0 differ) and by
// nil-ness (so null and [] differ).
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRegister(a, b *RegisterRequest) bool {
	return reflect.DeepEqual(a.Domain, b.Domain) && reflect.DeepEqual(a.Queries, b.Queries) &&
		sameFloats(a.Data, b.Data) && reflect.DeepEqual(a.Records, b.Records) &&
		math.Float64bits(a.Eps) == math.Float64bits(b.Eps) &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		a.Seed == b.Seed && a.Restarts == b.Restarts && a.OptSeed == b.OptSeed
}

// checkDecode holds the codec to the oracle on one body, decoded as dst's
// type by both.
func checkDecode[T any](t *testing.T, body []byte, decode func(*T, []byte) error, same func(a, b *T) bool) {
	t.Helper()
	var want, got T
	trailer, wantErr := decodeOracle(body, &want)
	gotErr := decode(&got, body)
	if wantErr == nil && closerTrailer(trailer) {
		if !errors.Is(gotErr, errTrailingData) {
			t.Fatalf("%T: body with a trailing %q after the document: err = %v, want the trailing-data rejection", got, trailer[0], gotErr)
		}
		return
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T: encoding/json err = %v, codec err = %v\nbody %q", got, wantErr, gotErr, truncate(body))
	}
	if wantErr == nil && !same(&want, &got) {
		t.Fatalf("%T: decoded values differ\nencoding/json %+v\ncodec         %+v\nbody %q", got, want, got, truncate(body))
	}
}

func truncate(b []byte) []byte {
	if len(b) > 512 {
		return b[:512]
	}
	return b
}

// perfbenchBody is a registration body shaped like the end-to-end
// benchmark's: the CPH schema's 500,480 cells holding 200,000 synthetic
// people, so most cells are 0 and the rest small counts.
func perfbenchBody(tb testing.TB) []byte {
	tb.Helper()
	dom := census.CPHDomain(false)
	x := make([]float64, dom.Size())
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200_000 {
		x[int(float64(len(x))*rng.Float64()*rng.Float64())]++
	}
	body, err := json.Marshal(RegisterRequest{
		Domain: dom.AttrSizes(),
		Queries: []string{
			"T,T,T,T,T", "I,T,T,T,T", "T,I,T,T,T", "T,T,I,T,T",
			"T,T,T,I,T", "T,T,T,T,I", "T,I,T,T,P", "I,I,T,T,T",
			"T,T,I,I,T", "I,T,T,T,R", "T,I,T,I,T", "T,T,T,I,W5",
		},
		Data: x, Eps: 1, Seed: 0x9e3779b97f4a7c15, Restarts: 2, OptSeed: 17,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzDecode is the codec's differential test: on any body, the codec and
// the reflective json.Decoder path accept and reject the same inputs, and
// accepted inputs decode to the same values, floats compared by bits. The
// one permitted difference is a ']' or '}' after the document, which only
// the codec rejects. The committed corpus (testdata/fuzz/FuzzDecode) seeds
// it with a benchmark-shaped registration, an answer batch and
// encoding/json's edge cases.
func FuzzDecode(f *testing.F) {
	f.Fuzz(checkBothBodies)
}

func checkBothBodies(t *testing.T, body []byte) {
	checkDecode(t, body, (*RegisterRequest).decodeJSON, sameRegister)
	checkDecode(t, body, (*AnswerRequest).decodeJSON, func(a, b *AnswerRequest) bool {
		return reflect.DeepEqual(a.Queries, b.Queries)
	})
}

// TestDecodeBenchmarkBody holds the codec to the oracle on the full-size
// benchmark registration, which is too large to fuzz from.
func TestDecodeBenchmarkBody(t *testing.T) {
	checkBothBodies(t, perfbenchBody(t))
}

// TestAppendAnswersMatchesEncoder: the answer encoder writes the bytes
// json.Encoder (SetEscapeHTML(false)) writes, at the format cutoffs and on
// random finite bit patterns.
func TestAppendAnswersMatchesEncoder(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1),
		1e-6, math.Nextafter(1e-6, 0), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), -1e21, -math.Nextafter(1e21, 0),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		1.5e-7, 9.999999e-7, 1e-7, -3e-9, 1, -1, 0.1, 123456789, 1e20, 2.5e300,
	}
	rng := rand.New(rand.NewPCG(3, 4))
	random := make([]float64, 0, 10_000)
	for len(random) < cap(random) {
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			random = append(random, f)
		}
	}
	shared := []float64{7, 0.25}
	for _, resp := range []*AnswerResponse{
		{},
		{Answers: [][]float64{}},
		{Answers: [][]float64{nil, {}, edge}},
		{Answers: [][]float64{shared, random, shared, shared[:1], edge[2:], shared}},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := appendAnswers(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendAnswers differs from json.Encoder\ngot  %.300s\nwant %.300s", got, want.Bytes())
		}
	}
	// The edge values include shortest forms with an e-0X exponent, the
	// case encoding/json rewrites to e-X.
	for _, f := range []float64{1.5e-7, 1e-7, 3e-9} {
		if got, _ := appendFloat(nil, f); !bytes.Contains(got, []byte("e-")) || bytes.Contains(got, []byte("e-0")) {
			t.Errorf("appendFloat(%v) = %s, want a one-digit e-X exponent", f, got)
		}
	}
}

// TestNonFiniteAnswerIs500: an answer JSON cannot carry is the same 500,
// with the same body, as when encoding/json wrote the response.
func TestNonFiniteAnswerIs500(t *testing.T) {
	s := &Server{log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		resp := &AnswerResponse{Answers: [][]float64{{1, 2}, {3, bad}}}
		want := httptest.NewRecorder()
		s.writeJSON(want, http.StatusOK, resp)
		got := httptest.NewRecorder()
		body, err := appendAnswers(nil, resp)
		s.writeEncoded(got, http.StatusOK, body, err)
		if got.Code != http.StatusInternalServerError || got.Code != want.Code ||
			got.Body.String() != want.Body.String() ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("answer %v: status %d body %q, encoding/json gave %d %q", bad, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestDecodeErrorsNameThePlace: rejections say where and what, since the
// message reaches the client in the 400 body.
func TestDecodeErrorsNameThePlace(t *testing.T) {
	for body, want := range map[string]string{
		`{"eps":1,"bogus":2}`:             `unknown field "bogus"`,
		`{"data":[1,2,x]}`:                `field "data": element 2: offset 13: invalid character 'x'`,
		`{"seed":-1}`:                     `field "seed": number -1 is not a uint64`,
		`{"restarts":1.0}`:                `field "restarts": number 1.0 is not an int`,
		`{"eps":1e400}`:                   `field "eps": number 1e400 does not fit a float64`,
		`{"eps":+1}`:                      `invalid character '+'`,
		`{"queries":["a` + "\x01" + `"]}`: `control characters must be escaped`,
		``:                                `unexpected end of JSON input`,
	} {
		var req RegisterRequest
		err := req.decodeJSON([]byte(body))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want it to mention %q", body, err, want)
		}
	}
}

// BenchmarkDecodeRegister decodes the benchmark-shaped registration body
// with the codec and, for scale, with encoding/json.
func BenchmarkDecodeRegister(b *testing.B) {
	body := perfbenchBody(b)
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for range b.N {
			var req RegisterRequest
			if err := req.decodeJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for range b.N {
			var req RegisterRequest
			if _, err := decodeOracle(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
