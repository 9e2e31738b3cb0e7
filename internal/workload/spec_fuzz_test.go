package workload

import (
	"fmt"
	"strings"
	"testing"
)

// Fuzzed domains have at most maxFuzzAttrs attributes of at most
// maxFuzzSize elements each, so every accepted term stays small.
const (
	maxFuzzAttrs = 8
	maxFuzzSize  = 128
)

// FuzzParseProduct: the one spec grammar behind the CLI's -query flags,
// serve -queries files and the HTTP API's "queries" never panics, whatever
// the spec and domain. An accepted product has one term per attribute,
// each term covers its attribute's size and, less surrounding spaces, is
// spelled the one way its name prints it (so W+8 and W08 are not W8), and
// parsing the same input again gives the same row count. Each byte of sizes is one attribute of size
// 1 + b mod maxFuzzSize. The seeds under testdata/fuzz are the specs the
// benchmark registers and answers over the CPH domain, the CI smoke's
// I,R and T,P over [2,16], and malformed specs: zero, negative, signed
// and oversized widths, empty terms and the wrong attribute count.
func FuzzParseProduct(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, sizes []byte) {
		sizes = sizes[:min(len(sizes), maxFuzzAttrs)]
		dom := make([]int, len(sizes))
		for i, b := range sizes {
			dom[i] = 1 + int(b)%maxFuzzSize
		}
		p, err := ParseProduct(spec, dom)
		if err != nil {
			return
		}
		if len(p.Terms) != len(dom) {
			t.Fatalf("%q over %v: %d terms", spec, dom, len(p.Terms))
		}
		parts := strings.Split(spec, ",")
		for a, term := range p.Terms {
			if term.Cols() != dom[a] {
				t.Fatalf("%q over %v: term %d covers %d elements", spec, dom, a, term.Cols())
			}
			part := strings.TrimSpace(parts[a])
			if want := fmt.Sprintf("%s(%d)", part, dom[a]); term.Name() != want {
				t.Fatalf("%q over %v: term %d spelled %q is %s", spec, dom, a, part, term.Name())
			}
		}
		again, err := ParseProduct(spec, dom)
		if err != nil {
			t.Fatalf("%q over %v: accepted once, then rejected: %v", spec, dom, err)
		}
		if again.Rows() != p.Rows() {
			t.Fatalf("%q over %v: %d rows, then %d", spec, dom, p.Rows(), again.Rows())
		}
	})
}
