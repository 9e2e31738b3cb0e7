package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/workload"
)

// DefaultGroups implements the paper's g function: it partitions the union
// terms into at most two groups. Products are grouped by the pattern of
// which attributes carry a non-trivial (non-Total) predicate set, so that
// e.g. [R⊗T; T⊗R] splits into its two natural pieces; while more than two
// patterns remain, the two nearest by Hamming distance of the pattern
// merge. A workload whose products all share one pattern is one group, on
// which OPTPlus declines.
func DefaultGroups(w *workload.Workload) [][]int {
	type pat struct {
		mask uint
		idx  []int
	}
	var pats []pat
	for j, p := range w.Products {
		var mask uint
		for i, t := range p.Terms {
			if t.Rows() != 1 || !workload.IsTotalOrIdentity(t) {
				mask |= 1 << uint(i)
			}
		}
		found := false
		for pi := range pats {
			if pats[pi].mask == mask {
				pats[pi].idx = append(pats[pi].idx, j)
				found = true
				break
			}
		}
		if !found {
			pats = append(pats, pat{mask: mask, idx: []int{j}})
		}
	}
	// Merge smallest-distance patterns until at most two remain.
	for len(pats) > 2 {
		bi, bj, bd := 0, 1, 1<<30
		for i := 0; i < len(pats); i++ {
			for j := i + 1; j < len(pats); j++ {
				if d := bits.OnesCount(pats[i].mask ^ pats[j].mask); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		pats[bi].idx = append(pats[bi].idx, pats[bj].idx...)
		pats[bi].mask |= pats[bj].mask
		pats = append(pats[:bj], pats[bj+1:]...)
	}
	groups := make([][]int, len(pats))
	for i, p := range pats {
		groups[i] = p.idx
	}
	return groups
}

// OPTPlus implements Definition 11 with the two groups of DefaultGroups: it
// runs OPT⊗ on each group and returns the two-part union strategy. The
// privacy budget is split across the blocks with the error-optimal shares
// βg ∝ Err_g^{1/3}. When the products form one group it declines with an
// error: a one-part union is OPT⊗ under another name.
func OPTPlus(w *workload.Workload, opts OPTKronOptions) (*UnionStrategy, float64, error) {
	groups := DefaultGroups(w)
	if len(groups) != 2 {
		return nil, 0, fmt.Errorf("core: OPT+ declines a workload whose products form %d group(s), not 2", len(groups))
	}
	// Per-group OPT⊗ runs are independent candidate evaluations; run them
	// concurrently with per-group seeds and report the first error (by group
	// index) deterministically.
	type groupResult struct {
		s   *KronStrategy
		e   float64
		err error
	}
	results := parallel.Map(opts.Workers, len(groups), func(g int) groupResult {
		sub := &workload.Workload{Domain: w.Domain}
		for _, j := range groups[g] {
			sub.Products = append(sub.Products, w.Products[j])
		}
		kopts := opts
		kopts.Seed = opts.Seed*1000003 + uint64(g)
		s, e, err := OPTKron(sub, kopts)
		return groupResult{s, e, err}
	})
	parts := make([]*KronStrategy, len(groups))
	groupErrs := make([]float64, len(groups))
	for g, r := range results {
		if r.err != nil {
			return nil, 0, r.err
		}
		parts[g] = r.s
		groupErrs[g] = r.e
	}
	shares := OptimalShares(groupErrs)
	total := 0.0
	for g, e := range groupErrs {
		total += e / (shares[g] * shares[g])
	}
	if math.IsNaN(total) {
		return nil, 0, fmt.Errorf("core: OPT+ produced NaN error")
	}
	return &UnionStrategy{Parts: parts, Shares: shares, Groups: groups}, total, nil
}
