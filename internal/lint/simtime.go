package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time-package entry points that read or wait on
// the wall clock. References to them inside the simulation boundary are
// determinism bugs: simulated code must take time from a clock.Scheduler.
// (Pure value helpers — time.Duration, time.Millisecond, ParseDuration —
// remain legal; they carry no clock.)
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// globalRandExempt are the math/rand (and v2) constructors that do NOT
// draw from the process-global source. Everything else at package level
// does, which makes draws depend on whatever else the process ran first.
var globalRandExempt = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// SimTime forbids wall-clock time and the global math/rand source inside
// the simulation packages. All time must flow through internal/clock
// schedulers and all randomness through internal/rng streams; a
// wall-clock site the simulation packages genuinely need (benchmarks,
// macro-test logging) is either outside the sim set or carries a
// //lint:allow simtime annotation.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "forbid time.Now/Sleep/After and the global math/rand source in simulation packages",
	Run:  runSimTime,
}

func runSimTime(pass *Pass) error {
	if !inSimSet(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"wall-clock time.%s in simulation package %q: use a clock.Scheduler (or annotate `//lint:allow simtime -- reason`)",
						sel.Sel.Name, pathTail(pass.ImportPath))
				}
			case "math/rand", "math/rand/v2":
				obj := pass.TypesInfo.Uses[sel.Sel]
				if _, isFunc := obj.(*types.Func); isFunc && !globalRandExempt[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"global math/rand source (rand.%s) in simulation package %q: draw from an internal/rng stream (or annotate `//lint:allow simtime -- reason`)",
						sel.Sel.Name, pathTail(pass.ImportPath))
				}
			}
			return true
		})
	}
	return nil
}
