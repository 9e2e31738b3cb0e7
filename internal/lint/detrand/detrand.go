// Package detrand enforces the determinism contract: fixed seed ⇒
// byte-identical strategies and answers at any worker count. Randomness
// in the deterministic packages must flow from an explicit seed through
// parallel.DeriveSeed (per-task PCG stream derivation) or be the
// measurement layer's own audited noise source — never the global
// math/rand state (order-dependent under concurrency, the exact bug
// PR 1 fixed) and never a wall-clock or pid seed (silently forks the
// byte-identity contract between runs).
package detrand

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// deterministic is the set of packages bound by the byte-identity
// contract: everything between a workload and its persisted strategy,
// measurement and snapshot bytes.
var deterministic = map[string]bool{
	"repro/internal/binfmt":   true,
	"repro/internal/core":     true,
	"repro/internal/kron":     true,
	"repro/internal/mat":      true,
	"repro/internal/lsmr":     true,
	"repro/internal/mech":     true,
	"repro/internal/registry": true,
	"repro/internal/snapshot": true,
}

// constructors are the math/rand functions that build a generator from
// an explicit seed or source; everything else at package level draws
// from the shared global state.
var constructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
	"NewSource":  true,
}

// seeded are the constructor/reseed functions whose arguments ARE the
// seed, and therefore must not be derived from wall clock or pid, and
// inside deterministic packages must be explicit values or
// parallel.DeriveSeed derivations.
var seeded = map[string]bool{
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewSource":  true, // math/rand (v1)
	"Seed":       true, // math/rand (v1) global reseed
}

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "deterministic packages (binfmt, core, kron, mat, lsmr, mech, registry, snapshot) must not use " +
		"global math/rand state or wall-clock/pid seeds; RNGs flow from an explicit seed via " +
		"parallel.DeriveSeed or mech.NoiseRNG",
	Run: run,
}

func run(pass *analysis.Pass) error {
	inDet := deterministic[pass.Pkg.Path()]
	for _, file := range pass.Files {
		if inDet {
			for _, imp := range file.Imports {
				if imp.Path.Value == `"math/rand"` {
					pass.Reportf(imp.Pos(),
						"deterministic package imports math/rand (v1): its global source and Seed are process-wide "+
							"mutable state; use math/rand/v2 generators seeded via parallel.DeriveSeed")
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on *rand.Rand are fine: the instance owns its stream
			}
			if inDet && !constructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"rand.%s draws from the global math/rand state: under the worker pool the draw order depends on "+
						"scheduling, breaking fixed-seed byte-identity; use an explicitly seeded generator (parallel.DeriveSeed)",
					fn.Name())
				return true
			}
			if seeded[fn.Name()] {
				checkSeedArgs(pass, fn.Name(), call, inDet)
			}
			return true
		})
	}
	return nil
}

// checkSeedArgs inspects the argument tree of a seeded constructor.
// Wall-clock and pid seeds are illegal everywhere; inside deterministic
// packages every function call in a seed expression must be a
// conversion or a blessed derivation (parallel.DeriveSeed), so the
// seed provenance is visible at the construction site.
func checkSeedArgs(pass *analysis.Pass, ctor string, call *ast.CallExpr, inDet bool) {
	for _, arg := range call.Args {
		// A clock/pid seed gets the specific diagnostic alone — inside a
		// deterministic package it would also fail the provenance rule,
		// but one finding naming the actual hazard beats two.
		if fn := findClockCall(pass, arg); fn != nil {
			pass.Reportf(arg.Pos(),
				"rand.%s seeded from %s.%s: wall-clock/pid seeds silently fork the fixed-seed ⇒ byte-identical "+
					"contract between runs; thread an explicit seed (parallel.DeriveSeed) instead", ctor, fn.Pkg().Name(), fn.Name())
			continue
		}
		if !inDet {
			continue
		}
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[inner.Fun]; ok && tv.IsType() {
				return true // conversion such as uint64(r), not a call
			}
			if fn := analysis.Callee(pass.TypesInfo, inner); !isBlessedDerivation(fn) {
				name := "a function value"
				if fn != nil {
					name = fn.Name()
				}
				pass.Reportf(inner.Pos(),
					"rand.%s seed computed by call to %s: in deterministic packages seeds must be explicit values or "+
						"parallel.DeriveSeed derivations so seed provenance is auditable at the construction site", ctor, name)
				return false // the offending call is reported once, whole
			}
			return true
		})
	}
}

// findClockCall returns the first call to time.Now, os.Getpid or
// os.Getppid anywhere in expr, or nil.
func findClockCall(pass *analysis.Pass, expr ast.Expr) *types.Func {
	var found *types.Func
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if inner, ok := n.(*ast.CallExpr); ok {
			fn := analysis.Callee(pass.TypesInfo, inner)
			if analysis.IsPkgFunc(fn, "time", "Now") ||
				analysis.IsPkgFunc(fn, "os", "Getpid") || analysis.IsPkgFunc(fn, "os", "Getppid") {
				found = fn
			}
		}
		return found == nil
	})
	return found
}

func isBlessedDerivation(fn *types.Func) bool {
	return analysis.IsPkgFunc(fn, "repro/internal/parallel", "DeriveSeed") ||
		analysis.IsPkgFunc(fn, "repro/internal/mech", "NoiseRNG")
}
