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

// TestMemberHasOneMessageTable keeps rrmp.Member's per-message state in one
// table: the member may declare only one field of a map type keyed by
// wire.MessageID, whose record holds every fact about a message in flight.
// Its seven parallel maps had to agree with each other. Finding none is a
// failure too, since then the match proves nothing.
func TestMemberHasOneMessageTable(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/rrmp")
	if err != nil {
		t.Fatal(err)
	}
	obj := pkgs[0].Types.Scope().Lookup("Member")
	if obj == nil {
		t.Fatal("package rrmp declares no Member")
	}
	st := obj.Type().Underlying().(*types.Struct)
	var tables []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if m, ok := f.Type().Underlying().(*types.Map); ok && types.TypeString(m.Key(), nil) == "repro/internal/wire.MessageID" {
			tables = append(tables, f.Name())
		}
	}
	if len(tables) != 1 {
		t.Fatalf("rrmp.Member has %d fields of a map type keyed by wire.MessageID (%s), want exactly one", len(tables), strings.Join(tables, ", "))
	}
}

// TestFacadeHasOneConstructor keeps the root package to one way of saying
// a deployment: a Group is built from a Scenario by NewGroup, and
// DefaultParams is the only other exported function. Eighteen With*
// options and a shelf of one-line forwards to internal packages once
// spelled the same things a second time. Missing NewGroup fails too,
// since then the check looked at the wrong package.
func TestFacadeHasOneConstructor(t *testing.T) {
	pkgs, err := lint.Load("../..", ".")
	if err != nil {
		t.Fatal(err)
	}
	scope := pkgs[0].Types.Scope()
	if _, ok := scope.Lookup("NewGroup").(*types.Func); !ok {
		t.Fatal("package repro declares no NewGroup")
	}
	var extra []string
	for _, name := range scope.Names() {
		if _, ok := scope.Lookup(name).(*types.Func); ok && ast.IsExported(name) &&
			name != "NewGroup" && name != "DefaultParams" {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		t.Fatalf("package repro exports %d functions besides NewGroup and DefaultParams: %s", len(extra), strings.Join(extra, ", "))
	}
}

// TestFiguresHaveOneCatalogue keeps the evaluation one list: every figure
// and ablation is an entry of runner.Figures that returns a runner.Table,
// which rrmp-figures prints and aggregates through one path. Fourteen
// exported Figure*/Ablation* drivers, each with its own result type,
// printer and multi-trial twin, once said the same thing fourteen ways.
// Missing Figures fails too, since then the check looked at the wrong
// package.
func TestFiguresHaveOneCatalogue(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/runner")
	if err != nil {
		t.Fatal(err)
	}
	scope := pkgs[0].Types.Scope()
	if _, ok := scope.Lookup("Figures").(*types.Var); !ok {
		t.Fatal("package runner declares no Figures")
	}
	var extra []string
	for _, name := range scope.Names() {
		if _, ok := scope.Lookup(name).(*types.Func); ok &&
			(strings.HasPrefix(name, "Figure") || strings.HasPrefix(name, "Ablation")) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		t.Fatalf("package runner exports figure drivers outside Figures: %s", strings.Join(extra, ", "))
	}
}
