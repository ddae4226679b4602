package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/runner"
)

// TestSweepReportByteIdenticalAcrossParallelism runs the full -sweep code
// path in-process (small topologies, the default fault axes, 2 trials)
// and asserts the rrmp-sweep/v1 JSON report written to -out is
// byte-identical at -parallel 1 and -parallel 4 — the determinism
// contract the committed BENCH_sweep.json depends on — including the new
// crash and partition cells.
func TestSweepReportByteIdenticalAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	report := func(parallel int) []byte {
		t.Helper()
		out := filepath.Join(dir, "sweep.json")
		err := runSweep(sweepArgs{
			sweep:     true,
			swRegions: "8;6,6", // shrink topologies; keep every default axis
			trials:    2,
			parallel:  parallel,
			seed:      1,
			outPath:   out,
			quiet:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	serial := report(1)
	wide := report(4)
	if !bytes.Equal(serial, wide) {
		t.Fatal("sweep report bytes differ between -parallel 1 and -parallel 4")
	}

	var rep repro.SweepReport
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != "rrmp-sweep/v1" {
		t.Fatalf("schema %q, want rrmp-sweep/v1", rep.Schema)
	}
	if rep.Trials != 2 {
		t.Fatalf("trials %d, want 2", rep.Trials)
	}

	crashCells, partCells, byteCells, legacyCells := 0, 0, 0, 0
	rmtpCells, sawRMTP := 0, false
	for _, cell := range rep.Cells {
		if cell.Scenario.Protocol == "rmtp" {
			rmtpCells++
			sawRMTP = true
			if !strings.Contains(cell.Name, "proto=rmtp") || cell.Scenario.Policy != "server" {
				t.Fatalf("rmtp cell %q malformed", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("nak_sent"); !ok {
				t.Fatalf("rmtp cell %q reports no nak_sent", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("ack_trim"); !ok {
				t.Fatalf("rmtp cell %q reports no ack_trim", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("searches"); ok {
				t.Fatalf("rmtp cell %q leaked the RRMP-only searches key", cell.Name)
			}
		} else if sawRMTP {
			t.Fatalf("rrmp cell %q appears after the rmtp family began", cell.Name)
		} else if _, ok := cell.Aggregate.Metric("nak_sent"); ok {
			t.Fatalf("rrmp cell %q leaked the rmtp-only nak_sent key", cell.Name)
		}
		if cell.Scenario.Crash > 0 {
			crashCells++
			if !strings.Contains(cell.Name, "crash=") {
				t.Fatalf("crash cell %q lacks a crash token", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("crashes"); !ok {
				t.Fatalf("crash cell %q reports no crashes metric", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("unrecoverable"); !ok {
				t.Fatalf("crash cell %q reports no unrecoverable metric", cell.Name)
			}
		}
		if cell.Scenario.PartitionAt > 0 {
			partCells++
			if !strings.Contains(cell.Name, "part=") {
				t.Fatalf("partition cell %q lacks a part token", cell.Name)
			}
		}
		// Byte-axis cells carry the byte-currency keys; legacy cells must
		// not (their key set is pinned by the golden report).
		_, hasBytes := cell.Aggregate.Metric("buffer_integral_bytesec")
		if cell.Scenario.PayloadBytes > 0 || cell.Scenario.ByteBudget > 0 {
			byteCells++
			if !hasBytes {
				t.Fatalf("byte-axis cell %q reports no buffer_integral_bytesec", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("pressure_evictions"); !ok {
				t.Fatalf("byte-axis cell %q reports no pressure_evictions", cell.Name)
			}
		} else {
			legacyCells++
			if hasBytes {
				t.Fatalf("legacy cell %q leaked byte-currency keys", cell.Name)
			}
		}
	}
	if crashCells == 0 || partCells == 0 {
		t.Fatalf("default matrix has %d crash and %d partition cells; want both > 0",
			crashCells, partCells)
	}
	if legacyCells == 0 || byteCells != 3*legacyCells {
		t.Fatalf("default matrix has %d legacy and %d byte-axis cells; want a 1:3 split",
			legacyCells, byteCells)
	}
	// The protocol axis: rmtp collapses the 2-policy axis, so its family
	// is half the rrmp family's size and appends after it.
	if rmtpCells == 0 || 3*rmtpCells != len(rep.Cells) {
		t.Fatalf("default matrix has %d rmtp cells of %d; want a 2:1 rrmp:rmtp split",
			rmtpCells, len(rep.Cells))
	}
}

// TestBudgetSweepPressureAndDeterminism is the byte-axis acceptance run: a
// budget-constrained payload sweep must actually hit the budget (pressure
// evictions > 0), keep survivor delivery ≥ 0.99 at a sane budget, and stay
// byte-identical across -parallel 1 and 8. Pinned to the rrmp protocol:
// the ≥ 0.99 survivor bound is an RRMP property (an orphaned rmtp region
// legitimately stalls — that regime has its own tests).
func TestBudgetSweepPressureAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	report := func(parallel int) []byte {
		t.Helper()
		out := filepath.Join(dir, "budget_sweep.json")
		if err := runSweep(sweepArgs{
			sweep:       true,
			swRegions:   "8;6,6",
			swPayloads:  "512,1024",
			swProtocols: "rrmp",
			budget:      16384,
			c:           6, lambda: 1, hold: 500 * time.Millisecond,
			msgs: 20, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
			trials:   2,
			parallel: parallel,
			seed:     1,
			outPath:  out,
			quiet:    true,
		}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	serial := report(1)
	wide := report(8)
	if !bytes.Equal(serial, wide) {
		t.Fatal("budget sweep report bytes differ between -parallel 1 and -parallel 8")
	}

	var rep repro.SweepReport
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	var pressure float64
	for _, cell := range rep.Cells {
		if cell.Scenario.ByteBudget != 16384 {
			t.Fatalf("cell %q lost the scalar -budget", cell.Name)
		}
		if !strings.Contains(cell.Name, "payload=") || !strings.Contains(cell.Name, "budget=16384") {
			t.Fatalf("cell %q lacks byte-axis tokens", cell.Name)
		}
		p, ok := cell.Aggregate.Metric("pressure_evictions")
		if !ok {
			t.Fatalf("cell %q reports no pressure_evictions", cell.Name)
		}
		pressure += p.Mean
		sdr, ok := cell.Aggregate.Metric("survivor_delivery_ratio")
		if !ok {
			t.Fatalf("cell %q reports no survivor_delivery_ratio", cell.Name)
		}
		if sdr.Mean < 0.99 {
			t.Fatalf("cell %q survivor delivery %.4f under a 16 KB budget, want >= 0.99",
				cell.Name, sdr.Mean)
		}
	}
	if pressure == 0 {
		t.Fatal("no pressure evictions anywhere: the 16 KB budget never bound")
	}
}

// TestSweepReportMatchesGolden regenerates the pinned-seed miniature sweep
// in-process and compares it byte-for-byte against the committed golden,
// which was produced by the PR 2 engine *before* the hot-path rewrite
// (pooled event queue, batched netsim fan-out, indexed buffer, bitset gap
// tracking) and before the byte and protocol axes existed — so the sweep
// is pinned to the legacy axes (payload 0, budget 0, protocol rrmp): every
// cell must keep its pre-axis name, keys, and bytes. Regenerate
// deliberately with:
//
//	go run ./cmd/rrmp-sim -sweep -sweep-regions '8;6,6' -trials 2 \
//	    -sweep-payloads 0 -sweep-budgets 0 -sweep-protocols rrmp \
//	    -seed 1 -out cmd/rrmp-sim/testdata/sweep_golden.json -json >/dev/null
func TestSweepReportMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "sweep_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	// -shards is an execution knob like -parallel: the golden bytes must
	// survive the region-sharded engine at any width.
	for _, shards := range []int{1, 8} {
		out := filepath.Join(t.TempDir(), "sweep.json")
		if err := runSweep(sweepArgs{
			sweep:       true,
			swRegions:   "8;6,6",
			swPayloads:  "0",
			swBudgets:   "0",
			swProtocols: "rrmp",
			// Flag defaults the CLI bakes into every sweep, spelled out because
			// runSweep is invoked below flag parsing.
			c: 6, lambda: 1, hold: 500 * time.Millisecond,
			msgs: 20, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
			trials:   2,
			parallel: 4,
			shards:   shards,
			seed:     1,
			outPath:  out,
			quiet:    true,
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		// At -shards 8 the report gains the top-level exec note (the
		// miniature's lossy legacy cells fall back to serial); the golden
		// predates it, so strip the note — and pin that it appears exactly
		// when it should — before the byte comparison. The cells
		// themselves must match byte for byte.
		var rep repro.SweepReport
		if err := json.Unmarshal(got, &rep); err != nil {
			t.Fatalf("-shards %d sweep report is not valid JSON: %v", shards, err)
		}
		if shards > 1 && rep.ExecNote == "" {
			t.Fatalf("-shards %d report lacks the exec note for its serial-fallback cells", shards)
		}
		if shards == 1 && rep.ExecNote != "" {
			t.Fatalf("-shards 1 report unexpectedly carries an exec note: %q", rep.ExecNote)
		}
		rep.ExecNote = ""
		canon, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, '\n')
		if !bytes.Equal(canon, golden) {
			t.Fatalf("-shards %d sweep report diverged from the pre-rewrite golden (testdata/sweep_golden.json); the hot-path rewrite must be behaviour-preserving", shards)
		}
	}
}

// TestScaleAggregatesByteIdenticalAcrossParallelism runs the -sweep-scale
// code path in-process on miniature tree cells at -parallel 1 and 8 and
// asserts the deterministic part of the report — everything except the
// machine-dependent wall_ms_per_trial / events_per_sec annotations — is
// byte-identical, extending the sweep determinism contract to the new
// scale cells.
func TestScaleAggregatesByteIdenticalAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	report := func(parallel, shards int) []byte {
		t.Helper()
		out := filepath.Join(dir, "scale.json")
		if err := runScale(sweepArgs{
			trials:   2,
			parallel: parallel,
			shards:   shards,
			seed:     1,
			outPath:  out,
			swTrees:  "4:2:120;4:3:150",
			quiet:    true,
		}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep repro.ScaleReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatalf("scale report is not valid JSON: %v", err)
		}
		if rep.Schema != "rrmp-scale/v1" {
			t.Fatalf("schema %q, want rrmp-scale/v1", rep.Schema)
		}
		for i := range rep.Cells {
			if rep.Cells[i].Members == 0 || rep.Cells[i].Depth == 0 {
				t.Fatalf("cell %q lacks topology annotations", rep.Cells[i].Name)
			}
			rep.Cells[i].WallMsPerTrial = 0
			rep.Cells[i].EventsPerSec = 0
		}
		canon, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return canon
	}

	serial := report(1, 1)
	wide := report(8, 1)
	if !bytes.Equal(serial, wide) {
		t.Fatal("scale aggregates differ between -parallel 1 and -parallel 8")
	}
	sharded := report(8, 4)
	if !bytes.Equal(serial, sharded) {
		t.Fatal("scale aggregates differ between -shards 1 and -shards 4")
	}
}

// TestTreeSingleRun drives the single-scenario mode on a depth-3 balanced
// tree (the -tree flag's path).
func TestTreeSingleRun(t *testing.T) {
	err := runSingle(io.Discard, sweepArgs{
		tree:    "3,3,130",
		msgs:    5,
		gap:     20e6,
		loss:    0.1,
		c:       4,
		lambda:  1,
		policy:  "two-phase",
		seed:    2,
		horizon: 2e9,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseTreeShapes covers both separators and the error paths.
func TestParseTreeShapes(t *testing.T) {
	got, err := parseTreeShapes("4:3:1000; 2:4:500")
	if err != nil {
		t.Fatal(err)
	}
	want := []repro.TreeShape{{Branch: 4, Levels: 3, Members: 1000}, {Branch: 2, Levels: 4, Members: 500}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parseTreeShapes = %v", got)
	}
	if one, err := parseTreeShape("4,3,1000"); err != nil || one != want[0] {
		t.Fatalf("parseTreeShape = %v, %v", one, err)
	}
	for _, bad := range []string{"4:3", "a:b:c", "4,3,1000,9"} {
		if _, err := parseTreeShape(bad); err == nil {
			t.Fatalf("tree spec %q accepted", bad)
		}
	}
}

// TestSingleRunWithFaults drives the single-scenario mode end to end with
// crash and partition flags (cmd/ previously had zero test files; this
// covers the non-sweep path too).
func TestSingleRunWithFaults(t *testing.T) {
	err := runSingle(io.Discard, sweepArgs{
		regionsCSV:   "10,10",
		msgs:         5,
		gap:          20e6, // 20 ms
		loss:         0.2,
		crash:        1,
		crashRecover: 500e6, // 500 ms
		partitionAt:  400e6,
		partitionFor: 300e6,
		c:            4,
		lambda:       1,
		policy:       "two-phase",
		seed:         3,
		horizon:      3e9,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleRunWithBudget drives the single-scenario mode end to end with
// a lognormal payload model and a binding byte budget.
func TestSingleRunWithBudget(t *testing.T) {
	err := runSingle(io.Discard, sweepArgs{
		regionsCSV:   "10",
		msgs:         10,
		gap:          20e6, // 20 ms
		loss:         0.1,
		c:            4,
		lambda:       1,
		policy:       "two-phase",
		payload:      1024,
		payloadModel: "lognormal",
		budget:       4096,
		seed:         5,
		horizon:      3e9,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseInts covers the byte-axis list parser.
func TestParseInts(t *testing.T) {
	got, err := parseInts("0, 1024,8192")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1024 || got[2] != 8192 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("12,x"); err == nil {
		t.Fatal("bogus int accepted")
	}
	// A stray minus sign must error loudly, not silently run the cell as
	// an unbudgeted legacy cell under a budget-looking flag line.
	if _, err := parseInts("-8192"); err == nil {
		t.Fatal("negative value accepted")
	}
	if err := runSweep(sweepArgs{sweep: true, budget: -1, trials: 1}); err == nil {
		t.Fatal("negative -budget accepted by runSweep")
	}
	if err := runSingle(io.Discard, sweepArgs{regionsCSV: "4", payload: -1, msgs: 1, gap: 1e6, horizon: 1e8, policy: "two-phase", c: 4, lambda: 1}); err == nil {
		t.Fatal("negative -payload accepted by runSingle")
	}
}

// TestProtocolSweepMiniature is the protocol-axis golden miniature: a
// -sweep-protocols matrix crossing faults and a budget must be
// byte-identical at -parallel 1 and 8, append every rmtp cell after every
// rrmp cell, and keep the per-protocol key disciplines intact.
func TestProtocolSweepMiniature(t *testing.T) {
	dir := t.TempDir()
	report := func(parallel int) []byte {
		t.Helper()
		out := filepath.Join(dir, "protocol_sweep.json")
		if err := runSweep(sweepArgs{
			sweep:       true,
			swRegions:   "8;6,6",
			swPayloads:  "0,512",
			swBudgets:   "0",
			swProtocols: "rrmp,rmtp",
			c:           6, lambda: 1, hold: 500 * time.Millisecond,
			msgs: 20, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
			trials:   2,
			parallel: parallel,
			seed:     1,
			outPath:  out,
			quiet:    true,
		}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	serial := report(1)
	wide := report(8)
	if !bytes.Equal(serial, wide) {
		t.Fatal("protocol sweep report bytes differ between -parallel 1 and -parallel 8")
	}

	var rep repro.SweepReport
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	firstRMTP := -1
	for i, cell := range rep.Cells {
		if cell.Scenario.Protocol == "rmtp" {
			if firstRMTP < 0 {
				firstRMTP = i
			}
		} else if firstRMTP >= 0 {
			t.Fatalf("rrmp cell %q after the rmtp family", cell.Name)
		}
	}
	if firstRMTP <= 0 {
		t.Fatal("protocol sweep produced no rmtp family, or no rrmp prefix")
	}
	// The rmtp family crosses the same topology × loss × churn × fault ×
	// byte matrix with the 2-policy axis collapsed, so it is exactly half
	// the rrmp family.
	if got, want := len(rep.Cells)-firstRMTP, firstRMTP/2; got != want {
		t.Fatalf("rmtp family has %d cells, want %d (policy axis collapsed)", got, want)
	}
	for _, cell := range rep.Cells[firstRMTP:] {
		if _, ok := cell.Aggregate.Metric("delivery_ratio"); !ok {
			t.Fatalf("rmtp cell %q reports no delivery_ratio", cell.Name)
		}
		if _, ok := cell.Aggregate.Metric("buffer_integral_msgsec"); !ok {
			t.Fatalf("rmtp cell %q reports no buffer integral", cell.Name)
		}
	}
}

// TestSingleRunRMTP drives the -protocol rmtp single-scenario mode end to
// end, faults included.
func TestSingleRunRMTP(t *testing.T) {
	err := runSingle(io.Discard, sweepArgs{
		protocol:     "rmtp",
		regionsCSV:   "10,10",
		msgs:         5,
		gap:          20e6,
		loss:         0.2,
		crash:        1,
		crashRecover: 500e6,
		c:            6,
		lambda:       1,
		policy:       "two-phase", // ignored by the baseline
		seed:         3,
		horizon:      3e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runSingle(io.Discard, sweepArgs{protocol: "bogus", regionsCSV: "4", msgs: 1, gap: 1e6, horizon: 1e8, policy: "two-phase", c: 4, lambda: 1}); err == nil {
		t.Fatal("bogus -protocol accepted")
	}
}

// TestTraceOutWritesFile pins -trace-out: traces route through the
// kernel's Tracer hook into the named file instead of unconditionally
// spamming stderr — for workload cells too, now that they run the same
// kernel — and a traced run's bytes do not depend on -shards (it takes one
// loop; at the parent commit every lane goroutine wrote the file and four
// runs gave four files).
func TestTraceOutWritesFile(t *testing.T) {
	dir := t.TempDir()
	traceOf := func(name string, a sweepArgs) []byte {
		t.Helper()
		a.traceOut = filepath.Join(dir, name)
		if err := runSingle(io.Discard, a); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(a.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(blob, []byte("DELIVER")) {
			t.Fatalf("%s has no DELIVER events; got %d bytes", name, len(blob))
		}
		return blob
	}
	base := sweepArgs{
		regionsCSV: "6",
		msgs:       3,
		gap:        10e6,
		loss:       0.3,
		c:          4,
		lambda:     1,
		policy:     "two-phase",
		seed:       4,
		horizon:    2e9,
	}
	traceOf("trace.log", base)

	wl := base
	wl.regionsCSV, wl.workload = "8,8", "mc"
	traceOf("workload.log", wl)

	// A hash-loss four-region cell genuinely shards when untraced.
	wide := sweepArgs{
		regionsCSV: "40,40,40,40", loss: 0.2, lossMode: "hash",
		c: 6, lambda: 1, policy: "two-phase",
		msgs: 10, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
		seed: 1, shards: 1,
	}
	serial := traceOf("shards1.log", wide)
	wide.shards = 4
	if sharded := traceOf("shards4.log", wide); !bytes.Equal(serial, sharded) {
		t.Fatal("trace bytes differ between -shards 1 and -shards 4")
	}
}

// TestSingleRunMatchesKernelCell pins the single run as exactly the
// kernel's cell: for an rrmp cell, an rmtp cell and a -workload cell, the
// printed metrics equal runner.RunScenario on the flags' expanded cell at
// -seed, key for key and bit for bit (%g prints the shortest string that
// round-trips a float64). At the parent commit the rrmp single run seeded
// its own loss stream and reported 1582 packets where the cell has 1551.
func TestSingleRunMatchesKernelCell(t *testing.T) {
	base := sweepArgs{
		regionsCSV: "10,10", loss: 0.2,
		c: 6, lambda: 1, policy: "two-phase", hold: 500 * time.Millisecond,
		msgs: 20, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
		seed: 3,
	}
	rmtp := base
	rmtp.protocol = "rmtp"
	wl := base
	wl.workload, wl.lossMode = "mc", "hash"
	for name, a := range map[string]sweepArgs{"rrmp": base, "rmtp": rmtp, "workload": wl} {
		sw, err := buildSweep(a)
		if err != nil {
			t.Fatal(err)
		}
		cells := sw.Expand()
		if len(cells) != 1 {
			t.Fatalf("%s: flags expand to %d cells, want 1", name, len(cells))
		}
		want, err := runner.RunScenario(cells[0], a.seed)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runSingle(&out, a); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if wantHead := fmt.Sprintf("cell: %s (seed 3)", cells[0].Name()); lines[0] != wantHead {
			t.Fatalf("%s: header %q, want %q", name, lines[0], wantHead)
		}
		got := map[string]float64{}
		for _, line := range lines[1:] {
			key, val, _ := strings.Cut(strings.TrimSpace(line), " ")
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				t.Fatalf("%s: malformed metric line %q", name, line)
			}
			got[key] = v
		}
		if len(got) != len(want) {
			t.Fatalf("%s: single run printed %d metrics, the cell has %d", name, len(got), len(want))
		}
		for k, v := range want {
			if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
				t.Errorf("%s: %s = %v, the cell has %v", name, k, g, v)
			}
		}
	}
}

// TestCheckFlags covers every flag-combination rejection (main exits 2 on
// each) and the neighbouring combinations that must pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    sweepArgs
		want string // substring of the error; "" = accepted
	}{
		{"plain single run", sweepArgs{trials: 1, protocol: "rrmp"}, ""},
		{"traced single run", sweepArgs{trials: 1, doTrace: true, protocol: "rrmp"}, ""},
		{"traced workload cell", sweepArgs{trials: 1, traceOut: "f", workload: "mc"}, ""},
		{"trace with -sweep", sweepArgs{sweep: true, doTrace: true}, "-trace/-trace-out apply to single-trial mode only"},
		{"trace-out with -trials", sweepArgs{trials: 2, traceOut: "f"}, "-trace/-trace-out apply to single-trial mode only"},
		{"trace with -sweep-scale", sweepArgs{sweepScale: true, doTrace: true}, "-trace/-trace-out apply to single-trial mode only"},
		{"trace with rmtp", sweepArgs{trials: 1, doTrace: true, protocol: "rmtp"}, "the rmtp baseline has no tracer hook"},
		{"record with -trials", sweepArgs{trials: 4, workload: "mc", traceRecord: "f"}, "-trace-record/-trace-replay apply to single-trial mode only"},
		{"replay with -sweep", sweepArgs{sweep: true, workload: "mc", traceReplay: "f"}, "-trace-record/-trace-replay apply to single-trial mode only"},
		{"record without -workload", sweepArgs{trials: 1, traceRecord: "f"}, "require -workload"},
		{"record and replay", sweepArgs{trials: 1, workload: "mc", traceRecord: "f", traceReplay: "g"}, "choose one of"},
		{"record alone", sweepArgs{trials: 1, workload: "mc", traceRecord: "f"}, ""},
		{"workload with -sweep-scale", sweepArgs{sweepScale: true, workload: "mc"}, "-workload does not apply to -sweep-scale"},
		{"workload with -trials", sweepArgs{trials: 2, workload: "mc"}, ""},
		{"fitness on a single run", sweepArgs{trials: 1, fitnessWeights: "default"}, "-fitness-weights scores sweep/multi-trial reports"},
		{"fitness with -sweep-scale", sweepArgs{sweepScale: true, fitnessWeights: "default"}, "-fitness-weights scores sweep/multi-trial reports"},
		{"fitness with -trials", sweepArgs{trials: 2, fitnessWeights: "default"}, ""},
		{"-out on a single run", sweepArgs{trials: 1, outSet: true, outPath: "x.json"}, "-out only applies"},
		{"-out '' on a single run", sweepArgs{trials: 1, outSet: true}, ""},
		{"-out with -sweep", sweepArgs{sweep: true, outSet: true, outPath: "x.json"}, ""},
	} {
		err := checkFlags(tc.a)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestParseWorkloadSpec covers the -workload flag parser: presets,
// key=val specs (windows included), and the error paths.
func TestParseWorkloadSpec(t *testing.T) {
	if spec, err := parseWorkloadSpec("mc"); err != nil || spec.Clients != 8 {
		t.Fatalf("preset mc = %+v, %v", spec, err)
	}
	if spec, err := parseWorkloadSpec("vod"); err != nil || spec.LateJoinFrac != 0.25 {
		t.Fatalf("preset vod = %+v, %v", spec, err)
	}
	spec, err := parseWorkloadSpec("clients=4,msgs=32,arrival=burst,gap=200ms,burst-len=4,burst-gap=5ms,window=0s-1s:4,window=2s-4s:0.5,size-model=lognormal,size-mean=512,zipf=1.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clients != 4 || spec.Msgs != 32 || spec.BurstLen != 4 ||
		spec.Gap != 200*time.Millisecond || len(spec.Windows) != 2 ||
		spec.Windows[1].Factor != 0.5 || spec.SizeMean != 512 {
		t.Fatalf("parsed spec = %+v", spec)
	}
	for _, bad := range []string{
		"bogus-preset",                  // not key=val, not a preset
		"clients=x",                     // bad int
		"clients=4",                     // msgs missing -> Validate fails
		"clients=4,msgs=8,arrival=warp", // unknown arrival
		"clients=4,msgs=8,window=1s:4",  // malformed window
		"clients=4,msgs=8,frobnicate=1", // unknown key
	} {
		if _, err := parseWorkloadSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestWorkloadRecordReplayByteIdentical is the CLI trace acceptance gate:
// a -workload run that records its timeline and a second run replaying
// that file print byte-identical metrics.
func TestWorkloadRecordReplayByteIdentical(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "mc.trace")
	base := sweepArgs{
		regionsCSV: "10,10", loss: 0.1, lossMode: "hash",
		c: 6, lambda: 1, policy: "two-phase", hold: 500 * time.Millisecond,
		msgs: 20, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
		seed: 7, workload: "mc",
	}
	record, replay := base, base
	record.traceRecord, replay.traceReplay = trace, trace
	var recorded bytes.Buffer
	if err := runSingle(&recorded, record); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte("rrmp-trace/v1\n")) {
		t.Fatalf("trace lacks the schema header: %q", blob[:20])
	}
	var replayed bytes.Buffer
	if err := runSingle(&replayed, replay); err != nil {
		t.Fatal(err)
	}
	if recorded.String() != replayed.String() {
		t.Fatalf("replay output differs from recording run:\n--- recorded ---\n%s--- replayed ---\n%s",
			recorded.String(), replayed.String())
	}
	if !bytes.Contains(recorded.Bytes(), []byte("wl=poisson:c8:m64")) {
		t.Fatalf("output lacks the workload token:\n%s", recorded.String())
	}
	// A truncated trace must be rejected loudly, not replayed short.
	if err := os.WriteFile(trace, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSingle(io.Discard, replay); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// TestSweepWorkloadFamilyAppends pins the default -sweep shape: the
// workload family's cells (18) and the adaptive-policy family's (6)
// append after every cell of the base matrix, carry the wl= token and
// the workload-only keys, and leave the base cells' names and key sets
// untouched.
func TestSweepWorkloadFamilyAppends(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := runSweep(sweepArgs{
		sweep:     true,
		swRegions: "6", // shrink the base matrix; the family keeps its real shape
		c:         6, lambda: 1, hold: 500 * time.Millisecond,
		msgs: 20, gap: 20 * time.Millisecond, horizon: 5 * time.Second,
		trials:         1,
		seed:           1,
		outPath:        out,
		quiet:          true,
		workloadFamily: true,
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep repro.SweepReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	firstWL := -1
	for i, cell := range rep.Cells {
		if cell.Scenario.Workload != nil {
			if firstWL < 0 {
				firstWL = i
			}
			if !strings.Contains(cell.Name, " wl=") {
				t.Fatalf("workload cell %q lacks the wl token", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("clients"); !ok {
				t.Fatalf("workload cell %q reports no clients", cell.Name)
			}
		} else {
			if firstWL >= 0 {
				t.Fatalf("legacy cell %q after the workload family began", cell.Name)
			}
			if strings.Contains(cell.Name, " wl=") {
				t.Fatalf("legacy cell %q carries a wl token", cell.Name)
			}
			if _, ok := cell.Aggregate.Metric("clients"); ok {
				t.Fatalf("legacy cell %q leaked the clients key", cell.Name)
			}
		}
	}
	if firstWL < 0 || len(rep.Cells)-firstWL != 24 {
		t.Fatalf("workload+adaptive families have %d cells starting at %d; want 18+6 appended",
			len(rep.Cells)-firstWL, firstWL)
	}
	adaptiveCells := 0
	for _, cell := range rep.Cells[firstWL:] {
		if strings.Contains(cell.Name, " policy=adaptive") {
			adaptiveCells++
		}
	}
	if adaptiveCells != 2 {
		t.Fatalf("adaptive family has %d adaptive cells, want 2", adaptiveCells)
	}
	vodCells := 0
	for _, cell := range rep.Cells[firstWL:] {
		if cell.Scenario.Workload.LateJoinFrac > 0 {
			vodCells++
			if _, ok := cell.Aggregate.Metric("late_joiners"); !ok {
				t.Fatalf("VoD cell %q reports no late_joiners", cell.Name)
			}
		}
	}
	if vodCells != 6 {
		t.Fatalf("workload family has %d VoD cells, want 6", vodCells)
	}
}

// TestSweepWorkloadAxisPinned covers -workload in multi-trial mode: the
// flag pins the sweep's workload axis to that one spec.
func TestSweepWorkloadAxisPinned(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cell.json")
	if err := runSweep(sweepArgs{
		regionsCSV: "8,8", loss: 0.1, lossMode: "hash",
		c: 6, lambda: 1, hold: 500 * time.Millisecond, policy: "two-phase",
		msgs: 10, gap: 20 * time.Millisecond, horizon: 3 * time.Second,
		trials:   2,
		seed:     1,
		workload: "bursty",
		outPath:  out,
		quiet:    true,
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep repro.SweepReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("pinned workload cell sweep has %d cells, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	if cell.Scenario.Workload == nil || cell.Scenario.Workload.Arrival != "burst" {
		t.Fatalf("cell %q lost the -workload spec", cell.Name)
	}
	if p, ok := cell.Aggregate.Metric("publishes"); !ok || p.Mean != 48 {
		t.Fatalf("cell %q publishes = %+v, want 48", cell.Name, p)
	}
}

// TestParseDurations covers the sweep-partitions axis parser.
func TestParseDurations(t *testing.T) {
	got, err := parseDurations("0, 1s,250ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1e9 || got[2] != 250e6 {
		t.Fatalf("parseDurations = %v", got)
	}
	if _, err := parseDurations("1s,bogus"); err == nil {
		t.Fatal("bogus duration accepted")
	}
}

// TestListPoliciesRoster smoke-tests the -list-policies listing against
// the registry: every canonical kind, alias and parameter (with its
// default) must appear, so the flag and the registry cannot drift apart.
func TestListPoliciesRoster(t *testing.T) {
	var buf bytes.Buffer
	printPolicyRoster(&buf)
	out := buf.String()
	for _, info := range policy.Known() {
		if !strings.Contains(out, info.Kind) || !strings.Contains(out, info.Summary) {
			t.Fatalf("roster lacks kind %q or its summary:\n%s", info.Kind, out)
		}
		for _, alias := range info.Aliases {
			if !strings.Contains(out, alias) {
				t.Fatalf("roster lacks alias %q of %q:\n%s", alias, info.Kind, out)
			}
		}
		for _, p := range info.Params {
			if !strings.Contains(out, p.Name+"=") || !strings.Contains(out, p.Default) {
				t.Fatalf("roster lacks parameter %q (default %q) of %q:\n%s",
					p.Name, p.Default, info.Kind, out)
			}
		}
	}
	if lines := strings.Count(out, "\n"); lines < len(policy.Known()) {
		t.Fatalf("roster has %d lines for %d kinds", lines, len(policy.Known()))
	}
}

// TestFitnessTableDisplayOnly pins -fitness-weights as pure display: the
// table renders one ranked row per cell and rejects malformed weight
// specs, and the report written to -out is byte-identical with and
// without the flag.
func TestFitnessTableDisplayOnly(t *testing.T) {
	runOnce := func(dir string, weights string) (string, *bytes.Buffer) {
		t.Helper()
		out := filepath.Join(dir, "sweep.json")
		if err := runSweep(sweepArgs{
			regionsCSV: "8", loss: 0.2, c: 6, lambda: 1, hold: 500 * time.Millisecond,
			msgs: 5, gap: 20 * time.Millisecond, horizon: 2 * time.Second,
			trials: 2, seed: 1, outPath: out, quiet: true,
			policy: "two-phase",
		}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep repro.SweepReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if weights != "" {
			if err := printFitness(&table, rep, weights); err != nil {
				t.Fatal(err)
			}
		}
		return string(blob), &table
	}
	plain, _ := runOnce(t.TempDir(), "")
	scored, table := runOnce(t.TempDir(), "default")
	if plain != scored {
		t.Fatal("-fitness-weights changed the report bytes")
	}
	if !strings.Contains(table.String(), "fitness ranking") || !strings.Contains(table.String(), "policy=two-phase") {
		t.Fatalf("fitness table lacks ranking or cell name:\n%s", table.String())
	}
	var rep repro.SweepReport
	if err := json.Unmarshal([]byte(plain), &rep); err != nil {
		t.Fatal(err)
	}
	if err := printFitness(io.Discard, rep, "delivery=x"); err == nil {
		t.Fatal("malformed weight spec accepted")
	}
	if err := printFitness(io.Discard, rep, "bogus=1"); err == nil {
		t.Fatal("unknown weight key accepted")
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	fn()
	w.Close()
	blob, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestShardsFallbackQuotesTheRule pins that the two places a user learns
// -shards could not apply — the single run's stderr warning and a sweep
// report's exec_note — both state netsim.ShardSafe's own reason, and that
// neither speaks when the loss model is shard-safe.
func TestShardsFallbackQuotesTheRule(t *testing.T) {
	reason := netsim.ShardSafe(&netsim.BernoulliLoss{}).Error()

	single := sweepArgs{
		regionsCSV: "6,6", loss: 0.2,
		c: 6, lambda: 1, policy: "two-phase", hold: 500 * time.Millisecond,
		msgs: 5, gap: 20 * time.Millisecond, horizon: 2 * time.Second,
		seed: 1, shards: 4,
	}
	run := func(a sweepArgs) string {
		return captureStderr(t, func() {
			if err := runSingle(io.Discard, a); err != nil {
				t.Error(err)
			}
		})
	}
	if got := run(single); !strings.Contains(got, reason) || !strings.Contains(got, "-shards 4") {
		t.Fatalf("legacy-loss -shards 4 warning %q does not state the rule %q", got, reason)
	}
	single.lossMode = "hash"
	if got := run(single); got != "" {
		t.Fatalf("hash-loss -shards 4 run warned: %q", got)
	}

	note := func(lossMode string) string {
		out := filepath.Join(t.TempDir(), "sweep.json")
		if err := runSweep(sweepArgs{
			sweep:     true,
			swRegions: "6,6", swLosses: "0.2", swChurns: "0", swPolicies: "two-phase",
			swPayloads: "0", swBudgets: "0", swProtocols: "rrmp",
			lossMode: lossMode,
			c:        6, lambda: 1, hold: 500 * time.Millisecond,
			msgs: 5, gap: 20 * time.Millisecond, horizon: 2 * time.Second,
			trials: 1, parallel: 1, shards: 4, seed: 1,
			outPath: out, quiet: true,
		}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep repro.SweepReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.ExecNote
	}
	if got := note(""); !strings.Contains(got, reason) {
		t.Fatalf("exec_note %q does not state the rule %q", got, reason)
	}
	if got := note("hash"); got != "" {
		t.Fatalf("hash-loss sweep carries an exec note: %q", got)
	}
}
