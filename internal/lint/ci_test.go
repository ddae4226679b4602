package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzTargetsRunInCI keeps CI's fuzz smoke step whole: every fuzz
// target in the module must have a line in the `fuzz smoke` step of
// .github/workflows/ci.yml that fuzzes it (-fuzz=Name) in its own
// package's directory. A target missing there runs only its seed corpus,
// as an ordinary test, and nothing says so; FuzzSharedSparesDifferential
// once went missing that way.
func TestFuzzTargetsRunInCI(t *testing.T) {
	const root = "../.."
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	smoked := fuzzSmokeRuns(string(ci))
	if len(smoked) == 0 {
		t.Fatal("ci.yml has no fuzz smoke step, or it runs no `go test -fuzz=` line")
	}
	targets := fuzzTargets(t, root)
	if !slices.Contains(targets, "FuzzSeqSet ./internal/wire") {
		t.Fatalf("control: the walk did not find FuzzSeqSet in ./internal/wire (found %q)", targets)
	}
	for _, target := range targets {
		if !slices.Contains(smoked, target) {
			t.Errorf("fuzz target %s is missing from ci.yml's fuzz smoke step; add\n  go test -fuzz=%s -fuzztime=20s -run '^$' %s/",
				target, strings.Fields(target)[0], strings.Fields(target)[1])
		}
	}
}

// fuzzSmokeLine is one line of the fuzz smoke step: the target it fuzzes
// and the package directory it runs in.
var fuzzSmokeLine = regexp.MustCompile(`^\s*go test .*-fuzz=(\w+)\b.*\s(\./\S*?)/?\s*$`)

// fuzzSmokeRuns returns "Name ./dir" for each line of ci.yml's fuzz smoke
// step: the lines after `- name: fuzz smoke` up to the next step.
func fuzzSmokeRuns(ci string) []string {
	var runs []string
	in := false
	for _, line := range strings.Split(ci, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "- name: fuzz smoke":
			in = true
		case in && strings.HasPrefix(trimmed, "- "):
			return runs
		case in:
			if m := fuzzSmokeLine.FindStringSubmatch(line); m != nil {
				runs = append(runs, m[1]+" "+m[2])
			}
		}
	}
	return runs
}

// fuzzTargets returns "Name ./dir" for every func FuzzName(*testing.F) in
// the module's test files, outside testdata and hidden directories.
func fuzzTargets(t *testing.T, root string) []string {
	t.Helper()
	var targets []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isFuzzTarget(fn) {
				targets = append(targets, fn.Name.Name+" ./"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// isFuzzTarget reports whether fn is a fuzz target as go test finds one:
// named Fuzz followed by no lower-case letter, taking one *testing.F.
func isFuzzTarget(fn *ast.FuncDecl) bool {
	name, ok := strings.CutPrefix(fn.Name.Name, "Fuzz")
	if !ok || (name != "" && name[0] >= 'a' && name[0] <= 'z') {
		return false
	}
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
