package lint_test

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestProtocolTimersAreOwned keeps every protocol timer a clock.Handle its
// owner embeds and re-arms: no non-test code in the protocol packages may
// call After on a clock.Scheduler, which allocates a Timer per arm.
// Drivers (runner, the bench harness) and the network's fallback for
// schedulers without Post keep After. netsim is walked as the control: its
// one After call must be found, or the walk proves nothing.
func TestProtocolTimersAreOwned(t *testing.T) {
	protocol := []string{"core", "rrmp", "gossipfd", "rmtp", "stability"}
	var patterns []string
	for _, p := range append(protocol, "netsim") {
		patterns = append(patterns, "./internal/"+p)
	}
	pkgs, err := lint.Load("../..", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	var scheduler *types.Interface
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == "repro/internal/clock" {
				scheduler = imp.Scope().Lookup("Scheduler").Type().Underlying().(*types.Interface)
			}
		}
	}
	if scheduler == nil {
		t.Fatal("no loaded package imports repro/internal/clock")
	}

	found := map[string][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "After" {
					return true
				}
				s := pkg.TypesInfo.Selections[sel]
				if s == nil || s.Kind() != types.MethodVal {
					return true
				}
				if recv := s.Recv(); types.Implements(recv, scheduler) || types.Implements(types.NewPointer(recv), scheduler) {
					found[pkg.Name] = append(found[pkg.Name], pkg.Fset.Position(call.Pos()).String())
				}
				return true
			})
		}
	}
	if len(found["netsim"]) == 0 {
		t.Fatal("control: the walk found no Scheduler.After call in netsim")
	}
	for _, p := range protocol {
		if sites := found[p]; len(sites) > 0 {
			t.Errorf("%s arms timers through Scheduler.After; embed a clock.Handle instead:\n  %s", p, strings.Join(sites, "\n  "))
		}
	}
}
