// Package lint is the repository's static enforcement of the determinism
// contract: the invariants DESIGN.md promises (all simulated time flows
// through internal/clock, all randomness through internal/rng streams,
// map iteration order never leaks into results, metric keys come from the
// central registry, protocol timers fire their owners) are checked by five
// analyzers instead of being left to convention and runtime differential
// tests.
//
// The analyzers are written against a deliberately small framework modeled
// on golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic, an
// analysistest-style fixture runner in linttest.go). The x/tools module is
// not vendored in this repository, so the framework is built directly on
// the standard library: packages are loaded with `go list -export -json
// -deps` and type-checked from source against compiler export data
// (loader.go). The API mirrors x/tools closely enough that porting the
// analyzers onto the real framework is a rename, not a rewrite.
//
// Suppression grammar (see DESIGN.md §12): a finding is suppressed by an
// annotation on the same line or the line directly above it:
//
//	//lint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The reason is mandatory; an allow annotation without ` -- reason` does
// not suppress anything and is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single package via its Pass
// and reports findings with Pass.Report; it returns an error only for
// internal failures (a finding is never an error).
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ImportPath is the package's full import path (types.Package.Path
	// reports the same thing, but keeping it explicit makes the sim-set
	// matching in simset.go self-documenting).
	ImportPath string

	allows      map[allowKey]bool
	diagnostics *[]Diagnostic
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowKey identifies one suppressed (file, line, analyzer) cell.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a finding at pos unless an allow annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows[allowKey{position.Filename, position.Line, p.Analyzer.Name}] {
		return
	}
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowPrefix starts every suppression annotation.
const allowPrefix = "//lint:allow "

// collectAllows scans a package's comments for //lint:allow annotations and
// returns the suppression set. An annotation on line L suppresses findings
// on L (trailing-comment form) and on L+1 (line-above form). Malformed
// annotations (no analyzer list, or a missing ` -- reason`) are reported as
// diagnostics of the synthetic "allow" analyzer so the grammar itself is
// machine-checked.
func collectAllows(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) map[allowKey]bool {
	allows := map[allowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				body := strings.TrimPrefix(c.Text, allowPrefix)
				names, reason, ok := strings.Cut(body, " -- ")
				if !ok || strings.TrimSpace(reason) == "" || strings.TrimSpace(names) == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "allow",
						Message:  "malformed //lint:allow annotation: want `//lint:allow <analyzer>[,<analyzer>] -- <reason>`",
					})
					continue
				}
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					allows[allowKey{pos.Filename, pos.Line, name}] = true
					allows[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return allows
}

// RunAnalyzers executes every analyzer over every package and returns all
// findings sorted by position (filename, line, column, analyzer) so output
// is deterministic regardless of package load order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Syntax, &diags)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Syntax,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.TypesInfo,
				ImportPath:  pkg.ImportPath,
				allows:      allows,
				diagnostics: &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in reporting order. cmd/rrmp-lint
// and the CI analyzer-count probe both key off this list, so adding an
// analyzer here is the single registration step.
func All() []*Analyzer {
	return []*Analyzer{SimTime, MapOrder, StreamLabel, MetricKey, TimerOwner}
}
