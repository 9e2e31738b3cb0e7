// Command experiments regenerates the tables and figures of the HDMM paper
// (McKenna et al., PVLDB 2018). Each subcommand prints the corresponding
// table/series; -scale small|default|paper trades runtime for fidelity to
// the paper's configuration (only -scale paper runs it unreduced).
//
// Usage:
//
//	experiments [-scale default] table3|table4a|table4b|table5|table6|
//	            fig1a|fig1b|fig1c|fig1d|fig2|fig3|fig4|fig5|fig6|all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

var runners = map[string]func(experiments.Scale) string{
	"table3":   experiments.Table3,
	"table4a":  experiments.Table4a,
	"table4b":  experiments.Table4b,
	"table5":   experiments.Table5,
	"table6":   experiments.Table6,
	"fig1a":    experiments.Fig1a,
	"fig1b":    experiments.Fig1b,
	"fig1c":    experiments.Fig1c,
	"fig1d":    experiments.Fig1d,
	"fig2":     experiments.Fig2,
	"fig3":     experiments.Fig3,
	"fig4":     experiments.Fig4,
	"fig5":     experiments.Fig5,
	"fig6":     experiments.Fig6,
	"ablation": experiments.Ablation,
}

// order fixes the presentation order for "all".
var order = []string{
	"table3", "table4a", "table4b", "table5", "table6",
	"fig1a", "fig1b", "fig1c", "fig1d", "fig2", "fig3", "fig4", "fig5", "fig6",
	"ablation",
}

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: small|default|paper")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-scale small|default|paper] <experiment>\n\nexperiments:\n")
		for _, name := range order {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		fmt.Fprintf(os.Stderr, "  all\n")
	}
	flag.Parse()
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range order {
			run(n, scale)
		}
		return
	}
	if _, ok := runners[name]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}
	run(name, scale)
}

func run(name string, scale experiments.Scale) {
	start := time.Now()
	fmt.Println(runners[name](scale))
	fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
}
