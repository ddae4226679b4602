package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// MetricKey enforces the metric-name registry: every metric key the sweep
// machinery emits or looks up is declared once in the runner package's
// metrickeys.go, as an MK constant in a const block whose doc comment
// carries a `//metrics:gate both|rrmp|rmtp` directive. The analyzer checks
// three things:
//
//  1. No raw metric-name string literals: in any package that declares or
//     imports the registry, a string literal equal to a registered key
//     must be replaced by its MK constant. This keeps emitters, reducers
//     and report printers agreeing by construction, not convention.
//  2. Protocol scoping: a file carrying a `//metrics:scope rrmp` (or
//     rmtp) directive may only mention keys whose block is gated to that
//     protocol or to both; `//metrics:scope both` (the shared scenario
//     kernel) admits only keys gated both. RRMP-only keys never leak into
//     rmtp cells, checked statically.
//  3. Gate completeness: every MK constant in the registry package must
//     sit in a gated block.
var MetricKey = &Analyzer{
	Name: "metrickey",
	Run:  runMetricKey,
}

// metricKeysFile is the one file allowed to spell registered keys as
// string literals: the registry itself.
const metricKeysFile = "metrickeys.go"

// scopeDirective marks a file as emitting cells for one protocol (or,
// with `both`, for either); gateDirective marks a const block's keys as
// belonging to one.
const (
	scopeDirective = "//metrics:scope "
	gateDirective  = "//metrics:gate "
)

// mkPrefix is the naming convention for registry constants.
const mkPrefix = "MK"

func runMetricKey(pass *Pass) error {
	keys, registryPkg := metricKeySet(pass)
	if len(keys) == 0 {
		return nil
	}

	var registry map[string]string // key value -> protocol gate
	if registryPkg == pass.Pkg {
		registry = extractGates(pass)
		checkGated(pass, keys, registry)
	}

	for _, file := range pass.Files {
		if filepath.Base(pass.Fset.Position(file.Pos()).Filename) == metricKeysFile {
			continue
		}
		checkLiterals(pass, file, keys)
		if registry != nil {
			if scope := fileScope(file); scope != "" {
				checkScope(pass, file, scope, registry)
			}
		}
	}
	return nil
}

// metricKeySet returns the registered key values (value -> constant name)
// visible to this package: its own MK constants if it declares the
// registry, else the exported MK constants of an imported runner package.
func metricKeySet(pass *Pass) (map[string]string, *types.Package) {
	if keys := mkConsts(pass.Pkg); len(keys) > 0 {
		return keys, pass.Pkg
	}
	for _, imp := range pass.Pkg.Imports() {
		if pathTail(imp.Path()) == "runner" {
			if keys := mkConsts(imp); len(keys) > 0 {
				return keys, imp
			}
		}
	}
	return nil, nil
}

// mkConsts collects pkg's package-level MK-prefixed string constants.
func mkConsts(pkg *types.Package) map[string]string {
	keys := map[string]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, mkPrefix) {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		keys[constant.StringVal(c.Val())] = name
	}
	return keys
}

// checkLiterals flags string literals spelling a registered key. Struct
// tags and import paths are not expressions of interest and are skipped.
func checkLiterals(pass *Pass, file *ast.File, keys map[string]string) {
	skip := map[*ast.BasicLit]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.Field:
			if node.Tag != nil {
				skip[node.Tag] = true
			}
		case *ast.ImportSpec:
			skip[node.Path] = true
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || skip[lit] {
			return true
		}
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		if name, registered := keys[constant.StringVal(tv.Value)]; registered {
			pass.Reportf(lit.Pos(),
				"metric-name literal %s: use the registry constant %s (or annotate `//lint:allow metrickey -- reason`)",
				lit.Value, name)
		}
		return true
	})
}

// fileScope returns the protocol named by a //metrics:scope directive in
// file, or "".
func fileScope(file *ast.File) string {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, scopeDirective) {
				return strings.TrimSpace(strings.TrimPrefix(c.Text, scopeDirective))
			}
		}
	}
	return ""
}

// checkScope verifies that every registry constant mentioned in a
// protocol-scoped file is gated to that protocol (or to both).
func checkScope(pass *Pass, file *ast.File, scope string, registry map[string]string) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !strings.HasPrefix(id.Name, mkPrefix) {
			return true
		}
		c, ok := pass.TypesInfo.Uses[id].(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			return true
		}
		proto, known := registry[constant.StringVal(c.Val())]
		if !known || proto == "both" || proto == scope {
			return true
		}
		pass.Reportf(id.Pos(),
			"metric key %s is gated to protocol %q but this file is scoped `//metrics:scope %s` (or annotate `//lint:allow metrickey -- reason`)",
			id.Name, proto, scope)
		return true
	})
}

// extractGates reads the `//metrics:gate` directives of the registry
// package's const blocks and returns key value -> protocol gate.
func extractGates(pass *Pass) map[string]string {
	registry := map[string]string{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST || gen.Doc == nil {
				continue
			}
			gate := ""
			for _, c := range gen.Doc.List {
				if strings.HasPrefix(c.Text, gateDirective) {
					gate = strings.TrimSpace(strings.TrimPrefix(c.Text, gateDirective))
				}
			}
			if gate == "" {
				continue
			}
			for _, spec := range gen.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if c, ok := pass.TypesInfo.Defs[id].(*types.Const); ok && c.Val().Kind() == constant.String {
						registry[constant.StringVal(c.Val())] = gate
					}
				}
			}
		}
	}
	return registry
}

// checkGated reports MK constants declared outside a gated const block.
func checkGated(pass *Pass, keys, registry map[string]string) {
	scope := pass.Pkg.Scope()
	for value, name := range keys {
		if _, ok := registry[value]; ok {
			continue
		}
		if obj := scope.Lookup(name); obj != nil {
			pass.Reportf(obj.Pos(),
				"metric key constant %s (%q) is outside a //metrics:gate block: declare it in a const block gated both, rrmp or rmtp", name, value)
		}
	}
}
