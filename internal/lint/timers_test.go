package lint_test

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestProtocolTimersAreOwned keeps every protocol timer a clock.Handle its
// owner embeds and re-arms: no non-test code in the protocol packages may
// call After on a clock.Scheduler, which allocates a Timer per arm.
// Drivers (runner, the bench harness) and the network's router for
// schedulers that are not a netsim.ShardRouter keep After. netsim is walked as the control: its
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
					found[pkg.Types.Name()] = append(found[pkg.Types.Name()], pkg.Fset.Position(call.Pos()).String())
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

// TestMemberHasNoMessageTable keeps rrmp's per-message state unhashed:
// neither rrmp.Member nor its sourceState may declare a field of a map
// type keyed by wire.MessageID. A message's record sits in its source's
// window at seq-base, so finding it costs a binary search over the
// sources and an index. The table it replaced, Member.msgs, was 11–13 %
// of pressure300's CPU in hashing alone. The served table, keyed by
// (message, origin), is the control: the matcher must find it, or the
// match proves nothing.
func TestMemberHasNoMessageTable(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/rrmp")
	if err != nil {
		t.Fatal(err)
	}
	if control := mapFieldsKeyedBy(t, pkgs[0], "Member", "repro/internal/rrmp.servedKey"); !slices.Equal(control, []string{"served"}) {
		t.Fatalf("control: the matcher found %v keyed by servedKey in rrmp.Member, want [served]", control)
	}
	for _, name := range []string{"Member", "sourceState"} {
		if tables := mapFieldsKeyedBy(t, pkgs[0], name, "repro/internal/wire.MessageID"); len(tables) > 0 {
			t.Errorf("rrmp.%s has fields of a map type keyed by wire.MessageID: %s", name, strings.Join(tables, ", "))
		}
	}
}

// TestMemberHoldsNothingItsRegionHolds keeps rrmp.Member to what is its
// own: it may not declare a field of a type its Region holds once for the
// whole region (the scheduler, the Params, the View's member lists, the
// tracer, the buffers' common settings and their spare entries), nor a
// pointer to one of the Params, the settings or the spares. A scale100k
// trial builds 100k members, so a copy per member costs 100k copies, and a
// pointer beside the one to the region costs 100k words; a member reads
// these through its region. Fields of the structs a member holds by value
// count too, but for a pointer only those its own package declares: its
// core.Buffer reaches the region's core.Shared by the one pointer a buffer
// has. Region itself is the control for the value types, and core.Buffer
// for the pointer: the matcher must find every type there, or the match
// proves nothing. The region's scheduler is its buffers' (core.Shared), so
// the control finds it through them.
//
// Nor may a member hold what it can derive or seldom uses, by value or by
// pointer: the transport (its region's, every call naming the sender), a
// gossipfd.Detector or its Hooks (both in the cold state it makes on first
// use), or a topology.NodeID of its own (its id is its region's
// members[selfIdx]; a NodeID inside a by-value field, like a source's
// src, names someone else). Each has a control where it now lives: the
// transport in Region, the detector and the hooks in coldState, and the
// member's id in its Config's View, which Init reads it from.
func TestMemberHoldsNothingItsRegionHolds(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/rrmp", "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	rrmp, core := pkgs[0], pkgs[1]
	if rrmp.ImportPath != "repro/internal/rrmp" {
		rrmp, core = core, rrmp
	}
	derivable := []struct{ typ, home, field string }{
		{"repro/internal/rrmp.Transport", "Region", "transport"},
		{"repro/internal/gossipfd.Detector", "coldState", "fd"},
		{"repro/internal/rrmp.Hooks", "coldState", "hooks"},
		{"repro/internal/topology.NodeID", "Config", "View.Self"},
	}
	for _, d := range derivable {
		typs := []string{d.typ, "*" + d.typ}
		if fs := fieldsOfTypes(t, rrmp, d.home, typs); !slices.ContainsFunc(fs, func(f typedField) bool { return f.name == d.field }) {
			t.Fatalf("control: the matcher found %v of type %s in rrmp.%s, want its %s", fs, d.typ, d.home, d.field)
		}
		for _, f := range fieldsOfTypes(t, rrmp, "Member", typs) {
			if d.typ == "repro/internal/topology.NodeID" && strings.Contains(f.name, ".") {
				continue // a by-value field's NodeID names a source or a peer
			}
			t.Errorf("rrmp.Member declares %s %s, which it can derive or keeps in %s", f.name, f.typ, d.home)
		}
	}
	regionTypes := []string{
		"repro/internal/clock.Scheduler",
		"repro/internal/rrmp.Params",
		"[]repro/internal/topology.NodeID",
		"repro/internal/trace.Tracer",
		"repro/internal/core.Shared",
		"repro/internal/core.Spares",
	}
	regionPointers := []string{
		"*repro/internal/rrmp.Params",
		"*repro/internal/core.Shared",
		"*repro/internal/core.Spares",
	}
	control := map[string]bool{}
	for _, f := range fieldsOfTypes(t, rrmp, "Region", regionTypes) {
		control[f.typ] = true
	}
	for _, typ := range regionTypes {
		if !control[typ] {
			t.Fatalf("control: the matcher found no field of type %s in rrmp.Region", typ)
		}
	}
	if fs := fieldsOfTypes(t, core, "Buffer", regionPointers); len(fs) != 1 || fs[0].typ != "*repro/internal/core.Shared" {
		t.Fatalf("control: the matcher found %v in core.Buffer, want its one *core.Shared", fs)
	}
	for _, f := range fieldsOfTypes(t, rrmp, "Member", regionTypes) {
		t.Errorf("rrmp.Member declares %s %s, which its Region holds; read it through the region", f.name, f.typ)
	}
	for _, f := range fieldsOfTypes(t, rrmp, "Member", regionPointers) {
		if f.pkg == rrmp.ImportPath {
			t.Errorf("rrmp.Member declares %s %s, pointing at what its Region holds; read it through the region", f.name, f.typ)
		}
	}
}

// typedField is a struct field's name and type, and the path of the
// package that declares the struct holding it.
type typedField struct{ name, typ, pkg string }

// fieldsOfTypes returns the fields of struct name in p whose type is one
// of typs, written as types.TypeString writes them. It looks inside the
// struct-typed fields the struct holds by value (a member's buffer, or a
// region's buffer settings), matched or not, naming a field found there by
// its path.
func fieldsOfTypes(t *testing.T, p *lint.Package, name string, typs []string) []typedField {
	t.Helper()
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("package %s declares no %s", p.Types.Name(), name)
	}
	var fields []typedField
	var walk func(prefix string, st *types.Struct)
	walk = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			typ := types.TypeString(f.Type(), nil)
			if slices.Contains(typs, typ) {
				fields = append(fields, typedField{prefix + f.Name(), typ, f.Pkg().Path()})
			}
			if inner, ok := f.Type().Underlying().(*types.Struct); ok {
				walk(prefix+f.Name()+".", inner)
			}
		}
	}
	walk("", obj.Type().Underlying().(*types.Struct))
	return fields
}

// TestSourceStateIsNotHashed keeps per-source state in slices sorted by
// source: neither rrmp.Member nor core.denseIndex may declare a field of a
// map type keyed by topology.NodeID. A group has one sender or a handful,
// so such a map cost every member an allocation up front and every lookup
// a hash. The matcher is TestMemberHasNoMessageTable's, whose control
// proves it.
func TestSourceStateIsNotHashed(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/core", "./internal/rrmp")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"repro/internal/core": "denseIndex", "repro/internal/rrmp": "Member"}
	for _, p := range pkgs {
		name, ok := want[p.ImportPath]
		if !ok {
			continue
		}
		delete(want, p.ImportPath)
		if hashed := mapFieldsKeyedBy(t, p, name, "repro/internal/topology.NodeID"); len(hashed) > 0 {
			t.Errorf("%s.%s has fields of a map type keyed by topology.NodeID: %s", p.Types.Name(), name, strings.Join(hashed, ", "))
		}
	}
	if len(want) > 0 {
		t.Fatalf("packages not loaded: %v", slices.Sorted(maps.Keys(want)))
	}
}

// TestMemberMetricsAreConstantSize keeps a member's metrics constant-size:
// none of rrmp.Metrics, rrmp.FaultMetrics and rmtp.Metrics may declare a
// field whose type is, or contains, a slice or a map. Each member once kept every latency
// sample in a list until collect, half a million floats in a 10k-member
// stream trial, when every reader used only the mean and the count.
// TestMemberMetricsAreConstantSizeFixture pins the matcher.
func TestMemberMetricsAreConstantSize(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/rmtp", "./internal/rrmp")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"repro/internal/rmtp": {"Metrics"}, "repro/internal/rrmp": {"Metrics", "FaultMetrics"}}
	for _, p := range pkgs {
		for _, name := range want[p.ImportPath] {
			if grown := growingFields(t, p, name); len(grown) > 0 {
				t.Errorf("%s.%s has fields that grow with the run: %s", p.Types.Name(), name, strings.Join(grown, ", "))
			}
		}
		delete(want, p.ImportPath)
	}
	if len(want) > 0 {
		t.Fatalf("packages not loaded: %v", slices.Sorted(maps.Keys(want)))
	}
}

// TestMemberMetricsAreConstantSizeFixture pins growingFields on a fixture
// whose Metrics has each shape: a slice or a map, directly or inside a
// struct, an array or a pointed-to value, is found; scalars, a fixed array
// of scalars, a constant-size struct and a self-referencing list are not.
func TestMemberMetricsAreConstantSizeFixture(t *testing.T) {
	pkgs, err := lint.Load("testdata/constsize", "./internal/node")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ByPeer", "Last", "Ring", "Samples", "Seen"}
	if got := growingFields(t, pkgs[0], "Metrics"); !slices.Equal(got, want) {
		t.Errorf("growingFields on the fixture = %v, want %v", got, want)
	}
}

// growingFields returns the fields of struct type name in p whose type is,
// or contains through struct fields, array elements or pointers, a slice
// or a map.
func growingFields(t *testing.T, p *lint.Package, name string) []string {
	t.Helper()
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("package %s declares no %s", p.Types.Name(), name)
	}
	inside := map[types.Type]bool{}
	var grows func(typ types.Type) bool
	grows = func(typ types.Type) bool {
		if inside[typ] {
			return false
		}
		inside[typ] = true
		defer delete(inside, typ)
		switch u := typ.Underlying().(type) {
		case *types.Slice, *types.Map:
			return true
		case *types.Array:
			return grows(u.Elem())
		case *types.Pointer:
			return grows(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if grows(u.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	st := obj.Type().Underlying().(*types.Struct)
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); grows(f.Type()) {
			fields = append(fields, f.Name())
		}
	}
	slices.Sort(fields)
	return fields
}

// mapFieldsKeyedBy returns the fields of struct type name in p whose type
// is a map keyed by the type spelled key.
func mapFieldsKeyedBy(t *testing.T, p *lint.Package, name, key string) []string {
	t.Helper()
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("package %s declares no %s", p.Types.Name(), name)
	}
	st := obj.Type().Underlying().(*types.Struct)
	var fields []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if m, ok := f.Type().Underlying().(*types.Map); ok && types.TypeString(m.Key(), nil) == key {
			fields = append(fields, f.Name())
		}
	}
	return fields
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

// TestProtocolSettingsHaveCallers keeps every protocol and baseline
// setting in use: each exported field of rrmp.Params, rmtp.Params,
// rmtp.Config, stability.Config and gossipfd.Config must be written by
// non-test code outside its declaring package, as a composite-literal key
// or an assignment, or else be listed in keep with its reason. A setting only
// its default ever fills is a constant spelled as a knob, and the
// branches only a non-default value reaches are dead. A keep entry that
// names a missing field, or a field that has since gained a caller,
// fails too, so the list cannot go stale.
func TestProtocolSettingsHaveCallers(t *testing.T) {
	settings := map[string][]string{
		"repro/internal/rrmp":      {"Params"},
		"repro/internal/rmtp":      {"Params", "Config"},
		"repro/internal/stability": {"Config"},
		"repro/internal/gossipfd":  {"Config"},
	}
	const timing = "the paper's timing model; library callers set it through repro.GroupConfig.Tune"
	const bound = "a termination bound; tests set it to reach the give-up and never-give-up regimes"
	const aliasing = "the aliasing contract for callers that reuse publish buffers, pinned by the budget tests"
	keep := map[string]string{
		"rrmp.Params.IntraRTT":        timing,
		"rrmp.Params.ParentRTT":       timing,
		"rrmp.Params.IdleThreshold":   timing,
		"rrmp.Params.SessionInterval": timing,
		"rrmp.Params.MaxRemoteTries":  bound,
		"rrmp.Params.MaxSearchTries":  bound,
		"rmtp.Params.MaxTries":        bound,
		"rrmp.Params.CopyOnStore":     aliasing,
		"rmtp.Params.CopyOnStore":     aliasing,
	}

	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// key names a field as "pkg.Type.Field" when its struct is one of the
	// settings types declared outside package from; ok is false otherwise,
	// since a package's own writes are its defaults.
	key := func(owner types.Type, field, from string) (string, bool) {
		if p, isPtr := owner.(*types.Pointer); isPtr {
			owner = p.Elem()
		}
		named, isNamed := owner.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return "", false
		}
		pkg := named.Obj().Pkg()
		if pkg.Path() == from || !slices.Contains(settings[pkg.Path()], named.Obj().Name()) {
			return "", false
		}
		return pkg.Name() + "." + named.Obj().Name() + "." + field, true
	}

	declared := map[string]bool{}
	written := map[string]bool{}
	for _, pkg := range pkgs {
		for _, name := range settings[pkg.ImportPath] {
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					declared[pkg.Types.Name()+"."+name+"."+f.Name()] = true
				}
			}
		}
		info := pkg.TypesInfo
		noteSelector := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			// Walk embedded fields to the struct that declares the field.
			owner := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if p, isPtr := owner.Underlying().(*types.Pointer); isPtr {
					owner = p.Elem()
				}
				owner = owner.Underlying().(*types.Struct).Field(i).Type()
			}
			if k, ok := key(owner, sel.Sel.Name, pkg.ImportPath); ok {
				written[k] = true
			}
		}
		for _, f := range pkg.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if k, ok := key(info.TypeOf(n), id.Name, pkg.ImportPath); ok {
									written[k] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						noteSelector(lhs)
					}
				case *ast.IncDecStmt:
					noteSelector(n.X)
				}
				return true
			})
		}
	}
	if len(declared) == 0 {
		t.Fatal("found none of the settings types; the walk proves nothing")
	}

	var uncalled []string
	for k := range declared {
		if !written[k] && keep[k] == "" {
			uncalled = append(uncalled, k)
		}
	}
	slices.Sort(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d settings are never set outside their package; make each a constant or delete it, or list it in keep with a reason:\n  %s",
			len(uncalled), strings.Join(uncalled, "\n  "))
	}
	for _, k := range slices.Sorted(maps.Keys(keep)) {
		switch {
		case !declared[k]:
			t.Errorf("keep lists %s, which is not a declared setting", k)
		case written[k]:
			t.Errorf("keep lists %s, which now has a caller outside its package; drop it from keep", k)
		}
	}
}
