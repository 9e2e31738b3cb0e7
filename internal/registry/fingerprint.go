// Package registry makes optimized HDMM strategies durable, reusable
// artifacts. Strategy selection (Algorithm 2) is the expensive step of the
// pipeline — answering queries from noisy measurements is cheap linear
// algebra — so the registry content-addresses each selected strategy by a
// canonical fingerprint of the workload structure plus the selection
// options, serializes it with a versioned binary codec, and caches it in an
// in-memory LRU backed by an on-disk store. A strategy optimized once is
// then reused by every later process with the same workload and options.
package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fingerprint returns a stable digest of the workload's structure: the
// domain shape plus the multiset of products, each identified by its weight
// and the canonical tokens of its per-attribute predicate sets. The digest
// is invariant to the order in which products were added (a workload is a
// set of query groups, not a sequence) and sensitive to every shape
// parameter: domain sizes, predicate-set kinds and their parameters, and
// product weights.
func Fingerprint(w *workload.Workload) [32]byte {
	digests := make([]string, len(w.Products))
	for i, p := range w.Products {
		h := sha256.New()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Weight))
		h.Write(buf[:])
		for _, t := range p.Terms {
			h.Write([]byte(workload.CanonicalToken(t)))
			h.Write([]byte{0}) // unambiguous token boundary
		}
		digests[i] = string(h.Sum(nil))
	}
	// Sorting the per-product digests makes the fingerprint order-invariant.
	sort.Strings(digests)

	h := sha256.New()
	h.Write([]byte("hdmm-workload-fp-v1\x00"))
	var buf [8]byte
	for _, n := range w.Domain.AttrSizes() {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	h.Write([]byte{0})
	for _, d := range digests {
		h.Write([]byte(d))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// FingerprintHex is Fingerprint rendered as a hex string, the form used in
// cache keys and diagnostics.
func FingerprintHex(w *workload.Workload) string {
	fp := Fingerprint(w)
	return hex.EncodeToString(fp[:])
}

// Key returns the content address of the strategy selected for (w, opts):
// a hex digest over the workload fingerprint and every selection option
// that can influence the result. Options that cannot change the selected
// strategy — Workers (results are bit-identical at any worker count) —
// are excluded, so runs on different machines share cache entries.
func Key(w *workload.Workload, opts core.HDMMOptions) string {
	fp := Fingerprint(w)
	h := sha256.New()
	h.Write([]byte("hdmm-strategy-key-v1\x00"))
	h.Write(fp[:])
	h.Write([]byte(paramsToken(opts.Normalized())))
	return hex.EncodeToString(h.Sum(nil))
}

// paramsToken renders the result-affecting selection options canonically.
func paramsToken(o core.HDMMOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "restarts=%d;maxmarg=%d;skip=%t,%t,%t;seed=%d;",
		o.Restarts, o.MaxMargDims, o.SkipKron, o.SkipPlus, o.SkipMarg, o.Seed)
	ps := make([]string, len(o.Kron.P))
	for i, p := range o.Kron.P {
		ps[i] = strconv.Itoa(p)
	}
	fmt.Fprintf(&b, "kron=p:%s,r:%d,it:%d,cy:%d,tol:%x;",
		strings.Join(ps, ","), o.Kron.Restarts, o.Kron.MaxIter, o.Kron.Cycles,
		math.Float64bits(o.Kron.Tol))
	fmt.Fprintf(&b, "marg=r:%d,it:%d", o.Marg.Restarts, o.Marg.MaxIter)
	return b.String()
}
