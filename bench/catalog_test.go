package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// BENCHMARK.json declares the benchmark to the driver; this keeps its
// names, units and directions in step with the catalogue the program
// prints from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(decl.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q", got)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths %v", decl.Paths)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}

	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(decl.EndToEnd) != len(contractE2E) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(decl.EndToEnd), len(contractE2E))
	}
	for i, d := range decl.EndToEnd {
		m, ok := e2eByName(d.Name)
		if !ok || d.Name != contractE2E[i] {
			t.Errorf("end-to-end metric %d is %q, want %q", i, d.Name, contractE2E[i])
			continue
		}
		if d.Unit != m.Unit || d.Better != better(m.HigherBetter) {
			t.Errorf("%s: declared %s/%s, catalogue %s/%s", d.Name, d.Unit, d.Better, m.Unit, better(m.HigherBetter))
		}
		if d.Bound == nil {
			t.Errorf("%s: no bound declared", d.Name)
		} else if *d.Bound != m.Bound || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: declared bound %v, catalogue %v, contract (0, 0.25]", d.Name, *d.Bound, m.Bound)
		}
	}

	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(decl.PerLayer), len(layerMetrics))
	}
	for i, d := range decl.PerLayer {
		m := layerMetrics[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != better(m.HigherBetter) {
			t.Errorf("per-layer metric %d: declared %s %s/%s, catalogue %s %s/%s",
				i, d.Name, d.Unit, d.Better, m.Name, m.Unit, better(m.HigherBetter))
		}
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

// The import rules of README.md, "Which file may import what": the measured
// path sees the system only through runner, exp, workload and topology, so
// the record survives refactors below them; each probe file adds its own
// layer and the value types that layer's API mentions.
func TestImportRules(t *testing.T) {
	measured := []string{"runner", "exp", "workload", "topology"}
	values := []string{"wire", "rng", "clock", "topology", "runner", "exp"}
	rules := map[string][]string{
		"main.go":           nil,
		"catalog.go":        measured,
		"stats.go":          nil,
		"compare.go":        nil,
		"workloads.go":      measured,
		"run.go":            measured,
		"sweep.go":          measured,
		"setup.go":          append([]string{"policy"}, measured...),
		"trace.go":          measured,
		"trace_sweep.go":    measured,
		"trace_open.go":     append([]string{"core", "policy", "rrmp"}, measured...),
		"probes.go":         {"clock"},
		"probe_topology.go": {"topology"},
		"probe_workload.go": {"workload", "exp"},
		"probe_eventq.go":   {"eventq"},
		"probe_sim.go":      {"sim"},
		"probe_netsim.go":   append([]string{"netsim"}, values...),
		"probe_core.go":     append([]string{"core"}, values...),
		"probe_policy.go":   {"policy"},
		"probe_rrmp.go":     append([]string{"rrmp", "core"}, values...),
		"probe_rmtp.go":     nil,
		"probe_gossipfd.go": append([]string{"gossipfd"}, values...),
		"race_on.go":        nil,
		"race_off.go":       nil,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	const internal = "repro/internal/"
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		allowed, ok := rules[file]
		if !ok {
			t.Errorf("%s has no import rule: add it to this table and to README.md", file)
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			pkg, isInternal := strings.CutPrefix(path, internal)
			if !isInternal {
				continue
			}
			permitted := false
			for _, a := range allowed {
				permitted = permitted || a == pkg
			}
			if !permitted {
				t.Errorf("%s imports %s; it may import only %v", file, path, allowed)
			}
		}
	}
}
