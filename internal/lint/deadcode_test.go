package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// audited reports whether a package's non-test code falls under the
// caller guards: everything under internal/ except linttest, which exists
// only for tests.
func audited(pkg *lint.Package) bool {
	return strings.HasPrefix(pkg.ImportPath, "repro/internal/") && pkg.ImportPath != "repro/internal/lint/linttest"
}

// checkKeep fails for every keep entry that names nothing declared, or
// whose subject no longer needs the exception, so the list cannot go stale.
func checkKeep(t *testing.T, keep map[string]string, declared, fine func(string) bool) {
	t.Helper()
	for _, k := range slices.Sorted(maps.Keys(keep)) {
		switch {
		case !declared(k):
			t.Errorf("keep lists %s, which is not declared", k)
		case fine(k):
			t.Errorf("keep lists %s, which no longer needs it; drop it from keep", k)
		}
	}
}

// TestProductionCodeHasCallers keeps shipped code shipped: every function
// and method declared in a non-test file under internal/ must be
// referenced by non-test code somewhere in the module (a command, the
// bench harness, the facade or another package), implement a method of an
// interface that something calls through, or be listed in keep with its
// reason. Code only a test calls is code nothing runs; a test that needs
// to reach inside a package does it from that package's export_test.go.
// The rule is uncalledFuncs; TestProductionCodeHasCallersFixture pins what
// it finds.
func TestProductionCodeHasCallers(t *testing.T) {
	const oracle = "a closed form of the paper's analysis (§2.2, §3.1, §3.2), the result the reproduction is about; analytic's tests pin it"
	const codec = "the reference encoding EncodedSize is tested against"
	keep := map[string]string{
		"analytic.BinomialPMF":                      oracle,
		"analytic.ElectionProbability":              oracle,
		"analytic.ExpectedRemoteRequestProbability": oracle,
		"analytic.ProbNoLongTermBuffererExact":      oracle,
		"analytic.ProbNoRequest":                    oracle,
		"wire.Message.Marshal":                      codec,
		"wire.Unmarshal":                            codec,
		"trace.Memory.Filter":                       "trace.Memory is the Tracer fake tests substitute for a Writer; they query it through this",
	}

	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if uncalled := uncalledFuncs(t, pkgs, keep); len(uncalled) > 0 {
		t.Errorf("%d functions under internal/ have no caller outside tests; delete each (with the tests that test only it), move it to its package's export_test.go, or list it in keep with a reason:\n  %s",
			len(uncalled), strings.Join(uncalled, "\n  "))
	}
}

// TestProductionCodeHasCallersFixture pins the interface half of the rule
// on a fixture module: a method implementing a module interface counts
// only if something calls that interface method through the interface,
// an interface method nothing calls through is itself a finding, and an
// implementation of an interface from outside the module (fmt.Stringer)
// counts as called.
func TestProductionCodeHasCallersFixture(t *testing.T) {
	pkgs, err := lint.Load("testdata/callers", "./...")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shape.Box.Size", "shape.Sizer.Size", "shape.Unused"}
	if got := uncalledFuncs(t, pkgs, nil); !slices.Equal(got, want) {
		t.Errorf("uncalledFuncs on the fixture = %v, want %v", got, want)
	}
}

// uncalledFuncs returns, sorted, the functions and methods declared in
// audited packages that no non-test code references, less the keep list;
// it fails t on a keep entry that is not declared or no longer needed. A
// function's references to itself do not count. A method counts as
// called when it implements a method of an interface from outside the
// module (error, fmt.Stringer), or of a module interface whose method
// something references through the interface, as a call or a method
// value. The methods of interfaces declared in audited packages are
// checked like any other method.
func uncalledFuncs(t *testing.T, pkgs []*lint.Package, keep map[string]string) []string {
	t.Helper()
	declared := map[string]*types.Func{}
	referenced := map[string]bool{}
	ifaces := map[*types.Interface]bool{}
	module := map[string]bool{}
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, pkg := range pkgs {
		module[pkg.ImportPath] = true
		collect(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		if audited(pkg) {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						declared[pkg.Types.Name()+"."+name+"."+it.ExplicitMethod(i).Name()] = it.ExplicitMethod(i)
					}
				}
			}
		}
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
					self = objKey(pkg.Fset, fn)
					if audited(pkg) && fd.Name.Name != "init" {
						name := pkg.Types.Name() + "." + fd.Name.Name
						if recv := receiver(fn); recv != nil {
							name = pkg.Types.Name() + "." + recv.Obj().Name() + "." + fd.Name.Name
						}
						declared[name] = fn
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
							if k := objKey(pkg.Fset, fn.Origin()); k != self {
								referenced[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no functions under internal/; the walk proves nothing")
	}
	// satisfies holds every method some interface reaches: a method of a
	// type that implements the interface, or promoted into one from an
	// embedded field (core.PolicyBase's defaults). A module interface
	// reaches only the methods it is called through.
	fset := pkgs[0].Fset
	satisfies := map[string]bool{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			for it := range ifaces {
				impl := tn.Type()
				if !types.Implements(impl, it) {
					if impl = types.NewPointer(impl); !types.Implements(impl, it) {
						continue
					}
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if m.Pkg() != nil && module[m.Pkg().Path()] && !referenced[objKey(fset, m)] {
						continue
					}
					obj, _, _ := types.LookupFieldOrMethod(impl, false, pkg.Types, m.Name())
					satisfies[objKey(fset, obj)] = true
				}
			}
		}
	}
	called := func(k string) bool {
		key := objKey(fset, declared[k])
		return referenced[key] || satisfies[key]
	}

	var uncalled []string
	for _, k := range slices.Sorted(maps.Keys(declared)) {
		if !called(k) && keep[k] == "" {
			uncalled = append(uncalled, k)
		}
	}
	checkKeep(t, keep, func(k string) bool { return declared[k] != nil }, called)
	return uncalled
}

// objKey names a declaration by file, line and name. Load type-checks each
// package from source but its imports from export data, so one function
// or field is a different object in every package that mentions it; its
// declaring line (export data keeps no column) is what they share.
func objKey(fset *token.FileSet, obj types.Object) string {
	pos := fset.Position(obj.Pos())
	return pos.Filename + ":" + strconv.Itoa(pos.Line) + " " + obj.Name()
}

// receiver is the named type a method is declared on, or nil for a plain
// function.
func receiver(fn *types.Func) *types.Named {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	r := sig.Recv().Type()
	if p, ok := r.(*types.Pointer); ok {
		r = p.Elem()
	}
	named, _ := r.(*types.Named)
	return named
}

// TestFieldsAreRead keeps every struct field under internal/ that non-test
// code writes read by non-test code too: a field only ever assigned, or a
// counter only ever incremented, is state nothing consults. The rule is
// unreadFields; TestFieldsAreReadFixture pins what it finds.
func TestFieldsAreRead(t *testing.T) {
	const load = "repro's Example prints per-member request load, the no-repair-server claim (§1)"
	keep := map[string]string{
		"rrmp.Metrics.LocalReqRecv":  load,
		"rrmp.Metrics.RemoteReqRecv": load,
	}

	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if unread := unreadFields(t, pkgs, keep); len(unread) > 0 {
		t.Errorf("%d fields under internal/ are written but never read outside tests; delete each, or list it in keep with a reason:\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
}

// TestFieldsAreReadFixture pins both halves of the rule on a fixture module
// that declares its own repro/internal/stats: a counter only incremented
// and a counter read only by its own merge are found; a counter both
// incremented and read, and a field whose result-less method has effects
// beyond the field, are not.
func TestFieldsAreReadFixture(t *testing.T) {
	pkgs, err := lint.Load("testdata/fields", "./...")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"node.Metrics.Merged", "node.Metrics.Sent"}
	if got := unreadFields(t, pkgs, nil); !slices.Equal(got, want) {
		t.Errorf("unreadFields on the fixture = %v, want %v", got, want)
	}
}

// unreadFields returns, sorted, the fields declared in audited packages
// that non-test code writes but never reads, less the keep list; it fails t
// on a keep entry that is not declared or no longer needed.
//
// A write is a composite-literal element, the direct target of an
// assignment or ++/--, or the receiver x.F or x.F[i] of an accumulator
// call: a pointer-receiver method with no results on a type of
// repro/internal/stats (Counter.Inc, RunningMean.AddDuration,
// Histogram.Add). A read of F inside the value written to
// F, such as s.n.Add(o.n.Value()), is only a merge and does not count; every other mention reads. Exempt are
// json-tagged fields, which encoding/json reads, and fields of struct
// types used as a map key or compared with == or !=, whose every field the
// comparison reads.
func unreadFields(t *testing.T, pkgs []*lint.Package, keep map[string]string) []string {
	t.Helper()
	names := map[string]string{} // objKey -> pkg.Type.Field
	exempt := map[string]bool{}
	written := map[string]bool{}
	read := map[string]bool{}
	var compared []types.Type
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		// field is the objKey of the struct field sel selects, or "".
		field := func(sel *ast.SelectorExpr) string {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return objKey(pkg.Fset, s.Obj().(*types.Var).Origin())
			}
			return ""
		}
		for _, f := range pkg.Syntax {
			prefix := map[*ast.StructType]string{}
			writes := map[*ast.SelectorExpr]bool{}
			merges := map[*ast.SelectorExpr]bool{}
			// merge marks every selection of field k inside value as a
			// merge into k rather than a read of it.
			merge := func(k string, value ...ast.Expr) {
				if k == "" {
					return
				}
				for _, v := range value {
					ast.Inspect(v, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok && field(sel) == k {
							merges[sel] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						prefix[st] = pkg.Types.Name() + "." + n.Name.Name
					}
				case *ast.StructType:
					if !audited(pkg) {
						break
					}
					owner, ok := prefix[n]
					if !ok {
						owner = pkg.Types.Name() + ".(" + filepath.Base(pkg.Fset.Position(n.Pos()).String()) + ")"
					}
					for _, fld := range n.Fields.List {
						for _, id := range fld.Names {
							v := objKey(pkg.Fset, info.Defs[id])
							names[v] = owner + "." + id.Name
							if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
								exempt[v] = true
							}
							if st, ok := fld.Type.(*ast.StructType); ok {
								prefix[st] = owner + "." + id.Name
							}
						}
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						v, value := st.Field(i), elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							value = kv.Value
						}
						if v != nil {
							k := objKey(pkg.Fset, v.Origin())
							written[k] = true
							merge(k, value)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							writes[sel] = true
							merge(field(sel), n.Rhs...)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				case *ast.CallExpr:
					if sel := accumulated(info, n); sel != nil {
						writes[sel] = true
						merge(field(sel), n.Args...)
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						compared = append(compared, info.TypeOf(n.X))
					}
				case *ast.SelectorExpr:
					s := info.Selections[n]
					if s == nil {
						break
					}
					// Every embedded field on the way to the selected
					// member is read; the member itself is read unless
					// this selector is a write target or a merge.
					owner := s.Recv()
					path := s.Index()
					if s.Kind() != types.FieldVal {
						path = path[:len(path)-1] // the last step names a method
					}
					for j, i := range path {
						if p, ok := owner.Underlying().(*types.Pointer); ok {
							owner = p.Elem()
						}
						v := owner.Underlying().(*types.Struct).Field(i).Origin()
						switch {
						case j < len(path)-1 || s.Kind() != types.FieldVal:
							read[objKey(pkg.Fset, v)] = true
						case writes[n]:
							written[objKey(pkg.Fset, v)] = true
						case !merges[n]:
							read[objKey(pkg.Fset, v)] = true
						}
						owner = v.Type()
					}
				}
				return true
			})
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				compared = append(compared, m.Key())
			}
		}
	}
	fset := pkgs[0].Fset
	var exemptAll func(t types.Type)
	exemptAll = func(t types.Type) {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i).Origin(); !exempt[objKey(fset, v)] {
				exempt[objKey(fset, v)] = true
				exemptAll(v.Type())
			}
		}
	}
	for _, typ := range compared {
		exemptAll(typ)
	}
	if len(names) == 0 {
		t.Fatal("found no struct fields under internal/; the walk proves nothing")
	}

	byName := map[string]string{}
	var unread []string
	for v, name := range names {
		byName[name] = v
		if written[v] && !read[v] && !exempt[v] && keep[name] == "" {
			unread = append(unread, name)
		}
	}
	slices.Sort(unread)
	checkKeep(t, keep, func(k string) bool {
		_, ok := byName[k]
		return ok
	}, func(k string) bool {
		v := byName[k]
		return !written[v] || read[v] || exempt[v]
	})
	return unread
}

// accumulated returns the selector x.F that call writes when call is
// x.F.M(…) or x.F[i].M(…) with M an accumulator method, or nil. The rule is
// kept to repro/internal/stats, whose types hold nothing but their tallies:
// a result-less method elsewhere (netsim.Group's Net.Unicast) has
// effects beyond its receiver, and calling it reads the field.
func accumulated(info *types.Info, call *ast.CallExpr) *ast.SelectorExpr {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[fun]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	m := s.Obj().(*types.Func)
	sig := m.Type().(*types.Signature)
	if m.Pkg() == nil || m.Pkg().Path() != "repro/internal/stats" || sig.Results().Len() > 0 { // nil: error.Error
		return nil
	}
	if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
		return nil
	}
	x := ast.Unparen(fun.X)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	sel, _ := x.(*ast.SelectorExpr)
	return sel
}

// TestDocRefsResolve keeps README.md and DESIGN.md pointing at code that
// exists: every backticked `pkg.Ident` or `pkg.Type.Member`, where pkg is
// the name of a package under internal/ or repro, must name a declaration
// in that package; `pkg.Member` may name a method or field of one of its
// types. A trailing call, `(…)`, is ignored. Test files count,
// since the docs cite guard tests by name. A reference with no upper-case
// letter is a per-layer metric key (`sim.events`) or a profile symbol,
// not an identifier, and is skipped.
func TestDocRefsResolve(t *testing.T) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// byName holds the checked packages; extra, per package, the names
	// its test files declare ("X" or "T.M") and the method and field names
	// of every type it declares, since the docs write a profile symbol such
	// as rrmp.searchAttempt (a Member method) as `pkg.Method`.
	byName := map[string]*lint.Package{}
	extra := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		if !audited(pkg) && pkg.ImportPath != "repro" {
			continue
		}
		names := map[string]bool{}
		byName[pkg.Types.Name()], extra[pkg.Types.Name()] = pkg, names
		scope := pkg.Types.Scope()
		for _, tn := range scope.Names() {
			named, ok := scope.Lookup(tn).Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				names[named.Method(i).Name()] = true
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					names[st.Field(i).Name()] = true
				}
			}
		}
		tests, err := filepath.Glob(filepath.Join("../..", strings.TrimPrefix(pkg.ImportPath, "repro"), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range tests {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
						continue
					}
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						names[id.Name+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, id := range s.Names {
								names[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if byName["rrmp"] == nil || byName["repro"] == nil {
		t.Fatal("did not load rrmp and repro; the walk proves nothing")
	}

	resolves := func(pkgName string, idents []string) bool {
		if extra[pkgName][strings.Join(idents, ".")] {
			return true
		}
		pkg := byName[pkgName]
		obj := pkg.Types.Scope().Lookup(idents[0])
		if len(idents) == 1 {
			return obj != nil
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return false
		}
		member, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, idents[1])
		return member != nil
	}

	span := regexp.MustCompile("`([^`\n]+)`")
	ref := regexp.MustCompile(`^([a-z][a-z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*){1,2})(\(.*)?$`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				r := ref.FindStringSubmatch(m[1])
				if r == nil || byName[r[1]] == nil || strings.ToLower(r[2]) == r[2] {
					continue
				}
				checked++
				if !resolves(r[1], strings.Split(r[2][1:], ".")) {
					t.Errorf("%s:%d: `%s` names nothing declared in package %s", doc, i+1, m[1], r[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no package references in the docs; the walk proves nothing")
	}
}
