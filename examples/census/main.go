// Census: the paper's motivating use case (Section 2). Builds the synthetic
// SF1 workload over the Census of Population and Housing schema, shows the
// implicit-representation savings of Examples 6–7, runs HDMM strategy
// selection, and compares its expected error against the Identity and
// Laplace Mechanism baselines.
package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/baseline"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kron"
	"repro/internal/mech"
)

func main() {
	w := census.SF1()
	fmt.Println("SF1 workload (synthetic reconstruction, Section 2):")
	fmt.Printf("  %d predicate counting queries as %d products\n", w.NumQueries(), len(w.Products))
	fmt.Printf("  domain: %s = %d cells\n", w.Domain, w.Domain.Size())
	fmt.Printf("  explicit matrix:  %7.1f MB\n", float64(w.ExplicitSize())*8/1e6)
	fmt.Printf("  implicit (W*):    %7.1f KB  (Example 7 reports 335KB)\n", float64(w.ImplicitSize())*8/1e3)

	// Strategy selection — data-independent, no privacy cost.
	start := time.Now()
	sel, err := core.Select(w, core.HDMMOptions{Restarts: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nstrategy selection took %s, winner: %s\n", time.Since(start).Round(time.Millisecond), sel.Operator)

	eID := baseline.IdentityErr(w)
	eLM := baseline.LMErr(w)
	fmt.Println("\nexpected error ratios vs HDMM (Table 3, CPH/SF1 row):")
	fmt.Printf("  Identity: %.2f\n", math.Sqrt(eID/sel.Err))
	fmt.Printf("  LM:       %.2f\n", math.Sqrt(eLM/sel.Err))
	fmt.Printf("  HDMM:     1.00\n")

	// End-to-end private release on a synthetic CPH population at ε = 1.
	data := dataset.CPHLike(200000, false, 7)
	x := data.Vector()
	src := rand.NewPCG(2, 3)
	start = time.Now()
	ws := kron.NewWorkspace()
	y := mech.Measure(sel.Strategy.Operator(), x, 1.0, 0, src, ws)
	xhat, err := sel.Strategy.Reconstruct(y, ws)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nmeasure+reconstruct over %d cells took %s\n", len(x), time.Since(start).Round(time.Millisecond))

	truth, err := mech.AnswerWorkload(w, x)
	if err != nil {
		panic(err)
	}
	private, err := mech.AnswerWorkload(w, xhat)
	if err != nil {
		panic(err)
	}
	emp := mech.TotalSquaredError(private, truth)
	fmt.Printf("empirical per-query RMSE at ε=1: %.2f (predicted %.2f)\n",
		math.Sqrt(emp/float64(len(truth))),
		math.Sqrt(2*sel.Err/float64(w.NumQueries())))
	fmt.Printf("example query: national count (query 0): true %.0f, private %.1f\n", truth[0], private[0])
}
