// Package epsilonspend enforces the privacy-spend invariant: a
// measurement is an irrevocable ε-spend, so the set of call sites that
// can draw noise or take a measurement is closed and audited. Any new
// caller of the measurement layer fails the build until a reviewer
// either adds it to the allowlist in this package (with a written
// justification) or rejects the design.
//
// PR 3 fixed a silent re-spend (heal-by-recompute re-measuring a
// corrupted cache entry) and PR 6 deliberately chose quarantine over
// recompute for torn snapshots for exactly this reason; this analyzer
// turns that review vigilance into a build failure.
package epsilonspend

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// mechPath is the measurement layer. Calls from inside it are exempt:
// the package is the audited implementation of the mechanism, and its
// internal structure (Measure calling Laplace per row) is reviewed as
// a whole.
const mechPath = "repro/internal/mech"

// spenders are the mech functions that draw noise or take a
// measurement. Calling any of them spends (or, for NoiseRNG, creates
// the only handle that can spend) privacy budget.
var spenders = map[string]bool{
	"Measure":            true,
	"MeasureCtx":         true,
	"MeasureGaussian":    true,
	"MeasureGaussianCtx": true,
	"Laplace":            true,
	"LaplaceVec":         true,
	"NoiseRNG":           true,
}

// A Site identifies one audited caller: the package path and the
// enclosing top-level function ("Func" or "Type.Method"; closures
// attribute to the declaration that contains them).
type Site struct {
	Pkg  string
	Func string
}

// Allowlist is the closed set of audited measurement call sites, one
// justification per entry. Adding an entry IS the review: explain why
// that site is a legitimate ε-spend, in terms the next auditor can
// re-verify without archaeology. Remove entries whose call sites go
// away — the analyzer does not flag stale entries, the auditor does.
var Allowlist = map[Site]string{
	// The serving engine's constructor is the measure-once site the
	// whole registry/snapshot design exists to protect: it measures
	// exactly once per engine key, persists the x̂ reconstructed from
	// it, and every later answer reuses x̂. Singleflight in serve.Pool and
	// the snapshot recovery path guarantee no duplicate construction. The
	// public one-shot pipeline (hdmm.Run, RunGaussian) builds an engine
	// too, so this is its measurement site as well.
	{"repro/internal/serve", "NewEngineCtx"}: "engine construction: the measure-once site guarded by pool singleflight and snapshot recovery",

	// DAWA baseline (Li et al.): its two-stage budget split takes
	// Laplace draws for the partition scores and the bucket counts.
	// Baseline mechanisms spend their own budget by definition.
	{"repro/internal/dawa", "Run"}:       "DAWA baseline measurement stage (eps2 share of the split budget)",
	{"repro/internal/dawa", "Partition"}: "DAWA baseline partition scores (eps1 share of the split budget)",

	// PrivBayes baseline: Laplace noise on the conditional
	// probability tables, the mechanism's defining measurement.
	{"repro/internal/privbayes", "estimateCPTs"}: "PrivBayes baseline: Laplace-noised CPT counts",

	// Paper-figure reproduction measures strategies head-to-head at
	// eps=1 on synthetic data; each Measure call is a deliberate,
	// plotted spend.
	{"repro/internal/experiments", "Fig1d"}: "Figure 1(d) reproduction: per-strategy measurements being compared",

	// The census walkthrough example demonstrates the manual
	// select→measure→reconstruct pipeline on public demo data.
	{"repro/examples/census", "main"}: "documented example of the manual pipeline on public demo data",
}

// Analyzer is the epsilonspend check.
var Analyzer = &analysis.Analyzer{
	Name: "epsilonspend",
	Doc: "measurements are irrevocable ε-spends: calls into the measurement layer " +
		"(mech.Measure*, mech.Laplace*, mech.NoiseRNG) are legal only from the audited " +
		"allowlist of call sites in internal/lint/epsilonspend",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == mechPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != mechPath || !spenders[fn.Name()] {
				return true
			}
			site := Site{pass.Pkg.Path(), analysis.EnclosingFuncName(file, call.Pos())}
			if _, audited := Allowlist[site]; audited {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to mech.%s spends privacy budget from unaudited site %s.%s: "+
					"add it to the epsilonspend allowlist with a written justification, or route through an audited entry point",
				fn.Name(), site.Pkg, site.Func)
			return true
		})
	}
	return nil
}
