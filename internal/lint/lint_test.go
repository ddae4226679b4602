package lint_test

import (
	"go/types"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture is a self-contained module under testdata whose packages
// reuse the sim-set import-path tails (core, rrmp, workload, runner, ...),
// so the analyzers run over them exactly as they run over the repository.
// Every expected finding — and every deliberately clean or allow-annotated
// line — is pinned by linttest's want matching.

func TestSimTimeFixture(t *testing.T) {
	linttest.Run(t, "testdata/simtime", []*lint.Analyzer{lint.SimTime})
}

func TestMapOrderFixture(t *testing.T) {
	linttest.Run(t, "testdata/maporder", []*lint.Analyzer{lint.MapOrder})
}

// TestEventPostMethodsExist keeps maporder's list of scheduling calls true
// to the module: every listed name is a method, of a named type or an
// interface, declared in one of the listed packages. The list once named
// a Push and a Send that no such package declared, while it missed the
// queue's pushes, Unicast and the timers' arms; a rename now fails here
// instead of leaving the analyzer watching a name nothing calls.
func TestEventPostMethodsExist(t *testing.T) {
	var patterns []string
	for tail := range lint.EventPostPackages {
		patterns = append(patterns, "./internal/"+tail)
	}
	pkgs, err := lint.Load("../..", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(patterns) {
		t.Fatalf("loaded %d packages for %v", len(pkgs), patterns)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range iface.NumMethods() {
					declared[iface.Method(i).Name()] = true
				}
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := range named.NumMethods() {
					declared[named.Method(i).Name()] = true
				}
			}
		}
	}
	for name := range lint.EventPostMethods {
		if !declared[name] {
			t.Errorf("maporder lists %s, which no method of %v declares", name, patterns)
		}
	}
}

func TestStreamLabelFixture(t *testing.T) {
	linttest.Run(t, "testdata/streamlabel", []*lint.Analyzer{lint.StreamLabel})
}

func TestMetricKeyFixture(t *testing.T) {
	linttest.Run(t, "testdata/metrickey", []*lint.Analyzer{lint.MetricKey})
}

// TestTimerOwnerFixture runs timerowner over a protocol package (core),
// where the bound-callback shapes are flagged and the Firer idioms pass,
// and over a driver (runner), the control, where the same shapes pass.
func TestTimerOwnerFixture(t *testing.T) {
	linttest.Run(t, "testdata/timerowner", []*lint.Analyzer{lint.TimerOwner})
}

// TestAnalyzerRoster pins the suite: CI's analyzer count and rrmp-lint
// both key off All().
func TestAnalyzerRoster(t *testing.T) {
	want := []string{"simtime", "maporder", "streamlabel", "metrickey", "timerowner"}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("lint.All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("lint.All()[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestRepositoryClean runs the full suite over the repository itself: the
// tree must stay lint-clean, with every sanctioned exception carried by an
// explicit //lint:allow annotation. (CI runs the same check standalone via
// cmd/rrmp-lint.)
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repository lint load is not a -short test")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository finding: %s", d)
	}
}

// TestEveryInternalPackageIsImported guards against orphan packages: every
// package under internal/ must be reachable from something the repository
// runs — a command, the bench harness or the root facade.
// Test-support packages (name ending in "test", e.g. linttest) are exempt.
// A package only its own tests import is code nothing runs.
func TestEveryInternalPackageIsImported(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Dir = "../.."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{}
	for _, p := range goList("-deps", "./cmd/...", "./bench", ".") {
		reached[p] = true
	}
	var orphans []string
	for _, p := range goList("./internal/...") {
		if !reached[p] && !strings.HasSuffix(p, "test") {
			orphans = append(orphans, p)
		}
	}
	if len(orphans) > 0 {
		t.Fatalf("internal packages nothing outside their own tests imports: %v", orphans)
	}
}
