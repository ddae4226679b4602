package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestListAnalyzers pins the roster the CI summary counts with -list.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr:\n%s", code, errb.String())
	}
	got := strings.Fields(out.String())
	want := []string{"simtime", "maporder", "streamlabel", "metrickey", "timerowner"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list = %v, want %v", got, want)
	}
}

// TestStandaloneFindsSeededViolation runs the standalone checker over a
// fixture module with one wall-clock call in a sim package: exit 1 and a
// simtime diagnostic.
func TestStandaloneFindsSeededViolation(t *testing.T) {
	t.Chdir("testdata/smoke")
	var out, errb bytes.Buffer
	code := run([]string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run(./...) on smoke fixture = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[simtime]") || !strings.Contains(out.String(), "time.Now") {
		t.Errorf("diagnostics missing the seeded simtime finding:\n%s", out.String())
	}
}

// TestStandaloneCleanModule: the same entry point exits 0 with no output
// on a module without findings.
func TestStandaloneCleanModule(t *testing.T) {
	t.Chdir("testdata/clean")
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("run(./...) on clean fixture = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean fixture produced output:\n%s", out.String())
	}
}

// TestJSONOutput: -json emits a machine-readable diagnostic array.
func TestJSONOutput(t *testing.T) {
	t.Chdir("testdata/smoke")
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run(-json ./...) = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var diags []struct {
		Analyzer string
		Message  string
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) != 1 || diags[0].Analyzer != "simtime" {
		t.Errorf("-json diagnostics = %+v, want one simtime finding", diags)
	}
}
