package lint_test

import (
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

func TestStreamLabelFixture(t *testing.T) {
	linttest.Run(t, "testdata/streamlabel", []*lint.Analyzer{lint.StreamLabel})
}

func TestMetricKeyFixture(t *testing.T) {
	linttest.Run(t, "testdata/metrickey", []*lint.Analyzer{lint.MetricKey})
}

// TestAnalyzerRoster pins the suite: CI's analyzer count and rrmp-lint
// both key off All().
func TestAnalyzerRoster(t *testing.T) {
	want := []string{"simtime", "maporder", "streamlabel", "metrickey"}
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
