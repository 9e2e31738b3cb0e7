package experiments

import (
	"fmt"
	"strings"

	"repro/internal/hier"
	"repro/internal/mat"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// Table4aDomains returns the 1-D domain sizes for the scale. The paper uses
// {128, 1024, 8192}; OPT0 at 8192 is hours on one core, so the default
// stops at 2048.
func Table4aDomains(s Scale) []int {
	switch s {
	case ScaleSmall:
		return []int{128}
	case ScalePaper:
		return []int{128, 1024, 8192}
	default:
		return []int{128, 1024, 2048}
	}
}

// Table4a reproduces Table 4(a): error ratios of Identity, Wavelet
// (Privelet), HB, GreedyH versus HDMM on the All Range, Prefix and Permuted
// Range workloads across 1-D domain sizes.
func Table4a(s Scale) string {
	restarts := map[Scale]int{ScaleSmall: 2, ScaleDefault: 5, ScalePaper: 25}[s]
	t := &table{header: []string{"Workload", "Domain", "Identity", "Wavelet", "HB", "GreedyH", "HDMM"}}
	for _, wl := range []struct {
		name string
		gen  func(n int) workload.PredicateSet
	}{
		{"All Range", func(n int) workload.PredicateSet { return workload.AllRange(n) }},
		{"Prefix", func(n int) workload.PredicateSet { return workload.Prefix(n) }},
		{"Permuted Range", func(n int) workload.PredicateSet {
			return workload.Permute(workload.AllRange(n), workload.RandPerm(n, 20180612))
		}},
	} {
		for _, n := range Table4aDomains(s) {
			y := wl.gen(n).Gram()
			// OPT0 iterations are O(p·n²); on one core, restarts are
			// tapered at large n below ScalePaper.
			r := restarts
			if n >= 2048 && s != ScalePaper {
				r = 1
			} else if n >= 1024 && s != ScalePaper && r > 3 {
				r = 3
			}
			eHDMM := hdmm1D(y, n, r, uint64(n))
			eID := mat.Trace(y)
			hv, err := wavelet.New(n)
			if err != nil {
				panic(err)
			}
			eWav := hv.Err(y)
			eHB := hier.HB(y, n, 16).Err(y)
			eGH := hier.GreedyH(y, n).Err(y)
			t.add(wl.name, fmt.Sprint(n),
				ratio(eID, eHDMM), ratio(eWav, eHDMM), ratio(eHB, eHDMM),
				ratio(eGH, eHDMM), ratio(eHDMM, eHDMM))
		}
	}
	return "Table 4(a): 1-D error ratios Ratio(W, K) vs HDMM\n" + t.String()
}

// Table4bDomains returns the 2-D side lengths (the paper uses 64/256/1024).
func Table4bDomains(s Scale) []int {
	switch s {
	case ScaleSmall:
		return []int{64}
	case ScalePaper:
		return []int{64, 256, 1024}
	default:
		return []int{64, 256, 1024}
	}
}

// Table4b reproduces Table 4(b): error ratios on 2-D workloads
// (P⊗P, R⊗R, [R⊗T; T⊗R], [P⊗I; I⊗P]) for Identity, Wavelet, HB2D,
// QuadTree versus HDMM.
func Table4b(s Scale) string {
	restarts := map[Scale]int{ScaleSmall: 1, ScaleDefault: 3, ScalePaper: 25}[s]
	t := &table{header: []string{"Workload", "Domain", "Identity", "Wavelet", "HB", "QuadTree", "HDMM"}}

	type spec struct {
		name  string
		pairs func(n int) [][2]workload.PredicateSet
	}
	specs := []spec{
		{"P ⊗ P", func(n int) [][2]workload.PredicateSet {
			return [][2]workload.PredicateSet{{workload.Prefix(n), workload.Prefix(n)}}
		}},
		{"R ⊗ R", func(n int) [][2]workload.PredicateSet {
			return [][2]workload.PredicateSet{{workload.AllRange(n), workload.AllRange(n)}}
		}},
		{"[R⊗T; T⊗R]", func(n int) [][2]workload.PredicateSet {
			return [][2]workload.PredicateSet{
				{workload.AllRange(n), workload.Total(n)},
				{workload.Total(n), workload.AllRange(n)},
			}
		}},
		{"[P⊗I; I⊗P]", func(n int) [][2]workload.PredicateSet {
			return [][2]workload.PredicateSet{
				{workload.Prefix(n), workload.Identity(n)},
				{workload.Identity(n), workload.Prefix(n)},
			}
		}},
	}
	for _, sp := range specs {
		for _, n := range Table4bDomains(s) {
			pairs := sp.pairs(n)
			w := workload.Union2D(pairs...)
			weights := make([]float64, len(pairs))
			y1 := make([]*mat.Dense, len(pairs))
			y2 := make([]*mat.Dense, len(pairs))
			for j, p := range pairs {
				weights[j] = 1
				y1[j] = p[0].Gram()
				y2[j] = p[1].Gram()
			}
			eHDMM, _ := selectHDMM(w, restarts, uint64(n)*7)
			eID := w.GramTrace()
			eWav, err := wavelet.Err2D(n, weights, y1, y2)
			if err != nil {
				panic(err)
			}
			qt, err := hier.NewQuadTree(n)
			if err != nil {
				panic(err)
			}
			eQT := qt.Err2D(weights, y1, y2)
			eHB := hier.HB2D(n, 16, weights, y1, y2).Err2D(weights, y1, y2)
			t.add(sp.name, fmt.Sprintf("%d x %d", n, n),
				ratio(eID, eHDMM), ratio(eWav, eHDMM), ratio(eHB, eHDMM),
				ratio(eQT, eHDMM), ratio(eHDMM, eHDMM))
		}
	}
	var b strings.Builder
	b.WriteString("Table 4(b): 2-D error ratios Ratio(W, K) vs HDMM\n")
	b.WriteString(t.String())
	return b.String()
}
