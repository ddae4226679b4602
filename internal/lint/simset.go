package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPackages names the packages inside the simulation boundary: code
// whose behavior must be a pure function of the trial seed. Matching is by
// the final import-path segment so the same analyzers run unchanged over
// this repository (repro/internal/core, ...) and over the self-contained
// fixture modules in testdata (simfix/core, ...).
//
// internal/clock is deliberately absent: it is the sanctioned boundary
// between simulated and wall time.
var simPackages = map[string]bool{
	"core":     true,
	"rrmp":     true,
	"rmtp":     true,
	"netsim":   true,
	"sim":      true,
	"eventq":   true,
	"exp":      true,
	"runner":   true,
	"workload": true,
	"topology": true,
	"gossipfd": true,
}

// pathTail returns the final segment of an import path.
func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// inSimSet reports whether the import path names a simulation package.
func inSimSet(importPath string) bool {
	return simPackages[pathTail(importPath)]
}

// pkgFunc resolves a call expression to the *types.Func it invokes (a
// package-level function or a method), or nil for indirect calls, builtins
// and conversions.
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcPkgTail returns the final import-path segment of the package that
// declares f ("" for builtins or functions without a package).
func funcPkgTail(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return pathTail(f.Pkg().Path())
}

// isRNGSourceMethod reports whether f is a method on the deterministic
// rng.Source type (any package whose path ends in "rng" counts, so fixture
// modules can model it).
func isRNGSourceMethod(f *types.Func) bool {
	if f == nil || funcPkgTail(f) != "rng" {
		return false
	}
	recv := f.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Source"
}
