// Package experiments contains the runners that regenerate every table and
// figure of the paper's evaluation (Section 8 and Appendices B–C). Each
// runner returns a formatted text block matching the paper's table layout;
// cmd/experiments exposes them as subcommands and bench_test.go wraps them
// as benchmarks. Scales default to single-core-laptop settings, which
// deviate from the paper's; the Scale knob raises them toward the paper's.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/workload"
)

// Scale selects experiment sizes.
type Scale int

const (
	// ScaleSmall finishes in seconds; used by unit tests and benchmarks.
	ScaleSmall Scale = iota
	// ScaleDefault is the default CLI setting (minutes).
	ScaleDefault
	// ScalePaper approaches the paper's configuration (tens of minutes on
	// one core).
	ScalePaper
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "default", "":
		return ScaleDefault, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (small|default|paper)", s)
}

// table formats rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// ratio formats sqrt(err/base) like the paper's tables.
func ratio(err, base float64) string {
	if math.IsInf(err, 1) || math.IsNaN(err) {
		return "*"
	}
	return fmt.Sprintf("%.2f", math.Sqrt(err/base))
}

// hdmm1D runs OPT0 on a 1-D Gram with the paper's p convention.
func hdmm1D(y *mat.Dense, n, restarts int, seed uint64) float64 {
	p := n / 16
	if p < 1 {
		p = 1
	}
	_, e := core.OPT0(y, core.OPT0Options{P: p, Restarts: restarts, Seed: seed})
	return e
}

// selectHDMM runs full OPT_HDMM on a workload.
func selectHDMM(w *workload.Workload, restarts int, seed uint64) (float64, string) {
	sel, err := core.Select(w, core.HDMMOptions{Restarts: restarts, Seed: seed})
	if err != nil {
		return math.Inf(1), "error"
	}
	return sel.Err, sel.Operator
}

// timed runs f and returns the elapsed wall-clock duration.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// fmtDur renders a duration in seconds with 3 significant digits.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3gs", d.Seconds())
}
