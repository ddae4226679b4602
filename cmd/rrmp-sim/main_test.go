package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tryParse runs a command line through the real flag table, exactly as
// main does: parse, build the declaration, validate, derive the mode.
func tryParse(line ...string) (sweepArgs, error) {
	fs := flag.NewFlagSet("rrmp-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, line)
}

// parse is tryParse for command lines that must be accepted. Report runs
// come back quiet: the tests read the -out file, not stdout.
func parse(t *testing.T, line ...string) sweepArgs {
	t.Helper()
	a, err := tryParse(line...)
	if err != nil {
		t.Fatalf("rrmp-sim %s: %v", strings.Join(line, " "), err)
	}
	a.quiet = true
	return a
}

// atBudget runs fn with GOMAXPROCS at n, the CPU budget a run divides
// between its worker pool and its trials' lanes.
func atBudget(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// atWidth runs fn with every trial asking for n lanes in place of its
// share of the CPU budget — the test-only width override.
func atWidth(n int, fn func()) {
	defer func() { runCell = runner.RunScenarioWith }()
	runCell = func(sc exp.Scenario, seed uint64, tl workload.Timeline, tracer trace.Tracer) (map[string]float64, error) {
		sc.Shards = n
		return runner.RunScenarioWith(sc, seed, tl, tracer)
	}
	fn()
}

// sweepReport runs a report command line in-process and returns the bytes
// it wrote to -out.
func sweepReport(t *testing.T, line ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	if err := runSweep(parse(t, append(line, "-out", out)...)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSweepReportByteIdenticalAcrossParallelism runs the full -sweep code
// path in-process (small topologies, the default fault axes, 2 trials)
// and asserts the rrmp-sweep/v1 JSON report written to -out is
// byte-identical on 1 and 4 cores — the determinism contract the
// committed BENCH_sweep.json depends on — including the crash and
// partition cells. The same matrix under hash loss, whose 6,6 cells run
// genuinely on two lanes, is byte-identical at one and two lanes.
func TestSweepReportByteIdenticalAcrossParallelism(t *testing.T) {
	// Shrink the topologies; keep every default axis.
	line := []string{"-sweep", "-regions", "8;6,6", "-trials", "2", "-seed", "1"}
	var serial, wide []byte
	atBudget(1, func() { serial = sweepReport(t, line...) })
	atBudget(4, func() { wide = sweepReport(t, line...) })
	if !bytes.Equal(serial, wide) {
		t.Fatal("sweep report bytes differ between 1 and 4 cores")
	}
	hash := append(line, "-loss-mode", "hash")
	var one, two []byte
	atWidth(1, func() { one = sweepReport(t, hash...) })
	atWidth(2, func() { two = sweepReport(t, hash...) })
	if !bytes.Equal(one, two) {
		t.Fatal("hash-loss sweep report bytes differ between 1 and 2 lanes per trial")
	}

	var rep exp.Report
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
// byte-identical on 1 and 8 cores. Pinned to the rrmp protocol:
// the ≥ 0.99 survivor bound is an RRMP property (an orphaned rmtp region
// legitimately stalls — that regime has its own tests).
func TestBudgetSweepPressureAndDeterminism(t *testing.T) {
	line := []string{"-sweep", "-regions", "8;6,6",
		"-payload", "512,1024", "-protocol", "rrmp", "-budget", "16384", "-trials", "2", "-seed", "1"}
	var serial, wide []byte
	atBudget(1, func() { serial = sweepReport(t, line...) })
	atBudget(8, func() { wide = sweepReport(t, line...) })
	if !bytes.Equal(serial, wide) {
		t.Fatal("budget sweep report bytes differ between 1 and 8 cores")
	}

	var rep exp.Report
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	var pressure float64
	for _, cell := range rep.Cells {
		if cell.Scenario.ByteBudget != 16384 {
			t.Fatalf("cell %q lost the one-value -budget axis", cell.Name)
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
// cell must keep its pre-axis name, keys, and bytes. It was regenerated
// once since, when the buffer integral became an exact sum of residences:
// only the last bits of buffer_integral_msgsec moved, in 46 of 64 cells.
// Regenerate deliberately with:
//
//	go run ./cmd/rrmp-sim -sweep -regions '8;6,6' -trials 2 \
//	    -payload 0 -budget 0 -protocol rrmp \
//	    -seed 1 -out cmd/rrmp-sim/testdata/sweep_golden.json -json >/dev/null
func TestSweepReportMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "sweep_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The lane width is an execution choice like the pool's: the golden
	// bytes must survive the region-sharded engine at any width.
	for _, width := range []int{1, 8} {
		var got []byte
		atWidth(width, func() {
			got = sweepReport(t, "-sweep", "-regions", "8;6,6",
				"-payload", "0", "-budget", "0", "-protocol", "rrmp", "-trials", "2", "-seed", "1")
		})
		if !bytes.Equal(got, golden) {
			t.Fatalf("sweep report at %d lanes diverged from the pre-rewrite golden (testdata/sweep_golden.json); the hot-path rewrite must be behaviour-preserving", width)
		}
	}
}

// TestScaleAggregatesByteIdenticalAcrossParallelism runs the -sweep-scale
// code path in-process on miniature tree cells. The report is an ordinary
// rrmp-sweep/v1 report, so the sweep determinism contract applies whole:
// its bytes are identical on 1 and 8 cores and at one and two lanes per
// trial. A -loss-mode hash tree runs two lanes, so its cells prove the
// width contract on real windows; the legacy-loss cells keep one loop.
func TestScaleAggregatesByteIdenticalAcrossParallelism(t *testing.T) {
	report := func(extra ...string) []byte {
		t.Helper()
		blob := sweepReport(t, append([]string{"-sweep-scale", "-tree", "4:2:120;4:3:150", "-trials", "2", "-seed", "1"}, extra...)...)
		var rep exp.Report
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatalf("scale report is not valid JSON: %v", err)
		}
		if rep.Schema != exp.ReportSchema {
			t.Fatalf("schema %q, want %s", rep.Schema, exp.ReportSchema)
		}
		return blob
	}
	var serial, wide, sharded []byte
	atBudget(1, func() { serial = report() })
	atBudget(8, func() { wide = report() })
	if !bytes.Equal(serial, wide) {
		t.Fatal("scale reports differ between 1 and 8 cores")
	}
	atWidth(2, func() { sharded = report() })
	if !bytes.Equal(serial, sharded) {
		t.Fatal("legacy-loss scale reports differ between 1 and 2 lanes")
	}
	var hashSerial, hashSharded []byte
	atWidth(1, func() { hashSerial = report("-loss-mode", "hash") })
	atWidth(2, func() { hashSharded = report("-loss-mode", "hash") })
	if !bytes.Equal(hashSerial, hashSharded) {
		t.Fatal("hash-loss scale reports differ between 1 and 2 lanes")
	}
}

// TestSweepRecordWidthIndependent regenerates BENCH_sweep.json's 600
// cells with every trial asking for RRMP_SHARDS lanes and compares the
// bytes with the committed record: the record does not depend on the lane
// width. Its 24 "30,30" hash-loss cells run genuinely on lanes; the rest
// keep one loop. CI's record job runs it at RRMP_SHARDS=2 (about 20 s on
// 2 cores). It is skipped unless the variable asks for two lanes or more,
// and under -short.
func TestSweepRecordWidthIndependent(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("RRMP_SHARDS"))
	if n < 2 || testing.Short() {
		t.Skip("set RRMP_SHARDS=2 (or wider) to regenerate the sweep record at that width")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	atWidth(n, func() { got = sweepReport(t, "-sweep", "-trials", "8") })
	if !bytes.Equal(got, want) {
		t.Fatalf("the sweep record at %d lanes per trial differs from BENCH_sweep.json", n)
	}
}

// TestCommittedRecordsAreSweepReports decodes both committed records
// strictly into exp.Report: a field the schema does not know (a host-time
// annotation, a second report layout) fails it. BENCH_scale.json must
// also hold exactly the uncustomized -sweep-scale matrix, cell for cell
// in order. Their bytes are CI's record job to check.
func TestCommittedRecordsAreSweepReports(t *testing.T) {
	decode := func(name string) exp.Report {
		t.Helper()
		blob, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		var rep exp.Report
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Schema != exp.ReportSchema {
			t.Fatalf("%s: schema %q, want %s", name, rep.Schema, exp.ReportSchema)
		}
		return rep
	}
	decode("BENCH_sweep.json")
	scale := decode("BENCH_scale.json")
	var want []string
	for _, sc := range append(exp.ScaleSweep().Expand(), exp.ScaleSweepXL().Expand()...) {
		want = append(want, sc.Name())
	}
	var got []string
	for _, cell := range scale.Cells {
		got = append(got, cell.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("BENCH_scale.json cells:\n%s\nwant the -sweep-scale matrix:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTreeSingleRun drives the single-scenario mode on a depth-3 balanced
// tree (the -tree flag's path).
func TestTreeSingleRun(t *testing.T) {
	err := runSingle(io.Discard, parse(t, "-tree", "3,3,130", "-msgs", "5", "-loss", "0.1",
		"-c", "4", "-seed", "2", "-horizon", "2s"))
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseTreeShapes covers both separators and the error paths.
func TestParseTreeShapes(t *testing.T) {
	got, err := list("4:3:1000; 2:4:500", ";", parseTreeShape)
	if err != nil {
		t.Fatal(err)
	}
	want := []exp.TreeShape{{Branch: 4, Levels: 3, Members: 1000}, {Branch: 2, Levels: 4, Members: 500}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("tree shape list = %v", got)
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
	err := runSingle(io.Discard, parse(t, "-regions", "10,10", "-msgs", "5", "-loss", "0.2",
		"-crash", "1", "-crash-recover", "500ms", "-partition-at", "400ms", "-partition-for", "300ms",
		"-c", "4", "-seed", "3", "-horizon", "3s"))
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleRunWithBudget drives the single-scenario mode end to end with
// a lognormal payload model and a binding byte budget.
func TestSingleRunWithBudget(t *testing.T) {
	err := runSingle(io.Discard, parse(t, "-regions", "10", "-msgs", "10", "-loss", "0.1", "-c", "4",
		"-payload", "1024", "-payload-model", "lognormal", "-budget", "4096", "-seed", "5", "-horizon", "3s"))
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseInts covers the byte axes' list parsing.
func TestParseInts(t *testing.T) {
	got := parse(t, "-budget", "0, 1024,8192").sw.Budgets
	if len(got) != 3 || got[0] != 0 || got[1] != 1024 || got[2] != 8192 {
		t.Fatalf("-budget list = %v", got)
	}
	if _, err := tryParse("-payload", "12,x"); err == nil {
		t.Fatal("bogus int accepted")
	}
	// A stray minus sign must error loudly, not silently run the cell as
	// an unbudgeted legacy cell under a budget-looking flag line.
	for _, line := range [][]string{
		{"-budget", "-8192"}, {"-sweep", "-budget", "0,-1"}, {"-regions", "4", "-payload", "-1"},
	} {
		if _, err := tryParse(line...); err == nil {
			t.Fatalf("rrmp-sim %s: negative byte size accepted", strings.Join(line, " "))
		}
	}
}

// TestProtocolSweepMiniature is the protocol-axis golden miniature: a
// -protocol rrmp,rmtp matrix crossing faults and a budget must be
// byte-identical on 1 and 8 cores, append every rmtp cell after every
// rrmp cell, and keep the per-protocol key disciplines intact.
func TestProtocolSweepMiniature(t *testing.T) {
	line := []string{"-sweep", "-regions", "8;6,6",
		"-payload", "0,512", "-budget", "0", "-protocol", "rrmp,rmtp", "-trials", "2", "-seed", "1"}
	var serial, wide []byte
	atBudget(1, func() { serial = sweepReport(t, line...) })
	atBudget(8, func() { wide = sweepReport(t, line...) })
	if !bytes.Equal(serial, wide) {
		t.Fatal("protocol sweep report bytes differ between 1 and 8 cores")
	}

	var rep exp.Report
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
	err := runSingle(io.Discard, parse(t, "-protocol", "rmtp", "-regions", "10,10", "-msgs", "5",
		"-loss", "0.2", "-crash", "1", "-crash-recover", "500ms",
		"-policy", "two-phase", // ignored by the baseline
		"-seed", "3", "-horizon", "3s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tryParse("-protocol", "bogus", "-regions", "4"); err == nil {
		t.Fatal("bogus -protocol accepted")
	}
}

// TestTraceOutWritesFile pins -trace-out: traces route through the
// kernel's Tracer hook into the named file instead of unconditionally
// spamming stderr — for workload cells too, now that they run the same
// kernel — and a traced run's bytes do not depend on the lane width asked
// for (it takes one loop; before it did, every lane goroutine wrote the
// file and four runs gave four files).
//
// testdata/trace_faults.golden pins the bytes themselves. It was written
// by the last string-detail tracer (PR 15's binary, before trace.Event was
// typed) from the fault-rich cell below, which reaches 17 of the 19 kinds;
// QUERY-REPLY (Params.SearchMode has no flag) and IGNORE (no cell sends
// RRMP a baseline PDU) are pinned at their call sites by internal/rrmp's
// allocs_test.go instead. The cell has no partition, and its seed was
// picked so that no failure-detector sweep suspects two peers at once —
// the one thing PR 15's binary did not print reproducibly (see
// TestTracePartitionByteStable).
func TestTraceOutWritesFile(t *testing.T) {
	dir := t.TempDir()
	traceOf := func(name string, line ...string) []byte {
		t.Helper()
		return traceFile(t, filepath.Join(dir, name), line...)
	}
	base := []string{"-msgs", "3", "-gap", "10ms", "-loss", "0.3", "-c", "4", "-seed", "4", "-horizon", "2s"}
	traceOf("trace.log", append(base, "-regions", "6")...)
	traceOf("workload.log", append(base, "-regions", "8,8", "-workload", "mc")...)

	// A hash-loss four-region cell genuinely shards when untraced.
	wide := []string{"-regions", "40,40,40,40", "-loss", "0.2", "-loss-mode", "hash", "-msgs", "10"}
	var serial, sharded []byte
	atWidth(1, func() { serial = traceOf("shards1.log", wide...) })
	atWidth(4, func() { sharded = traceOf("shards4.log", wide...) })
	if !bytes.Equal(serial, sharded) {
		t.Fatal("trace bytes differ between 1 and 4 lanes")
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "trace_faults.golden"))
	if err != nil {
		t.Fatal(err)
	}
	faults := []string{"-regions", "6,6,6", "-loss", "0.4", "-loss-mode", "hash", "-crash", "1", "-crash-recover", "300ms",
		"-churn", "1", "-budget", "2048", "-payload", "512", "-seed", "8", "-msgs", "20", "-horizon", "2s"}
	for _, width := range []int{1, 4} {
		atWidth(width, func() {
			if got := traceOf(fmt.Sprintf("faults%d.log", width), faults...); !bytes.Equal(got, golden) {
				t.Errorf("%d lanes: trace differs from testdata/trace_faults.golden (%d bytes, golden %d)", width, len(got), len(golden))
			}
		})
	}
}

// traceFile runs the single-run command line with -trace-out path and
// returns the file's bytes.
func traceFile(t *testing.T, path string, line ...string) []byte {
	t.Helper()
	a := parse(t, append(line, "-trace-out", path)...)
	if err := runSingle(io.Discard, a); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(a.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("DELIVER")) {
		t.Fatalf("%s has no DELIVER events; got %d bytes", path, len(blob))
	}
	return blob
}

// TestTracePartitionByteStable pins the trace of a cell whose failure
// detector suspects many peers in one sweep: a 30-member region split for
// a second, 656 SUSPECT lines, most sharing their instant with others.
// Until PR 17 gossipfd's sweep ranged over a map and called OnSuspect in
// Go map order, so this command line wrote a different file on every run
// (6 files in 6 runs at the parent commit; metrics were unaffected — the
// callback's effects commute, trace lines do not). The dense table is
// swept in ascending NodeID order, so the bytes are now a function of the
// seed at any lane width.
//
// testdata/trace_partition.golden is this PR's binary's file. The parent
// binary cannot write a stable one; what it prints equals the golden as a
// sorted line set (1739 lines, checked on three parent runs when the
// golden was committed), i.e. only the order inside same-instant SUSPECT
// groups ever differed.
func TestTracePartitionByteStable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trace_partition.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(golden, []byte(" SUSPECT ")); n != 656 {
		t.Fatalf("golden has %d SUSPECT lines, want 656", n)
	}
	line := []string{"-regions", "30", "-loss", "0.2", "-loss-mode", "hash", "-partition-at", "500ms", "-partition-for", "1s",
		"-seed", "3", "-msgs", "20", "-horizon", "3s"}
	dir := t.TempDir()
	// Three runs on the CPU budget, then one at each pinned width.
	for i, width := range []int{0, 0, 0, 1, 4} {
		run := func() {
			if got := traceFile(t, filepath.Join(dir, fmt.Sprintf("run%d.log", i)), line...); !bytes.Equal(got, golden) {
				t.Errorf("run %d (width %d): trace differs from testdata/trace_partition.golden (%d bytes, golden %d)",
					i, width, len(got), len(golden))
			}
		}
		if width > 0 {
			atWidth(width, run)
		} else {
			run()
		}
	}
}

// TestTraceOutFailureFailsTheRun: a trace the disk refused is an error
// before any metric prints, not an exit-0 truncated file. /dev/full opens
// and closes cleanly and fails every write, which the string-detail
// tracer's Fprintln dropped: the same run exited 0 there.
func TestTraceOutFailureFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	a := parse(t, "-regions", "6", "-msgs", "3", "-trace-out", "/dev/full")
	var out bytes.Buffer
	err := runSingle(&out, a)
	if err == nil || !strings.Contains(err.Error(), "writing trace output") {
		t.Fatalf("runSingle error = %v, want a trace write failure", err)
	}
	if out.Len() != 0 {
		t.Fatalf("metrics printed despite the failed trace:\n%s", out.String())
	}
}

// TestSingleRunMatchesKernelCell pins the single run as exactly the
// kernel's cell: for an rrmp cell, an rmtp cell and a -workload cell, the
// printed metrics equal runner.RunScenario on the flags' expanded cell at
// -seed, key for key and bit for bit (%g prints the shortest string that
// round-trips a float64). At the parent commit the rrmp single run seeded
// its own loss stream and reported 1582 packets where the cell has 1551.
func TestSingleRunMatchesKernelCell(t *testing.T) {
	base := []string{"-regions", "10,10", "-loss", "0.2", "-seed", "3"}
	for name, line := range map[string][]string{
		"rrmp":     base,
		"rmtp":     append(base, "-protocol", "rmtp"),
		"workload": append(base, "-workload", "mc", "-loss-mode", "hash"),
	} {
		a := parse(t, line...)
		cells := a.sw.Expand()
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
// each) and the neighbouring combinations that must pass. The mode is
// derived, so "single" below means what the flags describe — one cell ×
// one trial — not the absence of -sweep.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		line string
		want string // substring of the error; "" = accepted
	}{
		{"plain single run", "", ""},
		{"traced single run", "-trace", ""},
		{"traced workload cell", "-trace-out f -workload mc", ""},
		{"traced one-cell -sweep", "-sweep -trace -regions 8 -loss 0.1 -churn 0 -crash 0 -partition-for 0 -policy fixed -payload 0 -budget 0 -protocol rrmp", ""},
		{"trace with -sweep", "-sweep -trace", "-trace/-trace-out apply to one cell × one trial only"},
		{"trace with a two-value axis", "-trace -loss 0.1,0.2", "-trace/-trace-out apply to one cell × one trial only"},
		{"trace-out with -trials", "-trials 2 -trace-out f", "-trace/-trace-out apply to one cell × one trial only"},
		{"trace with -sweep-scale", "-sweep-scale -trace", "-trace/-trace-out apply to one cell × one trial only"},
		{"trace with rmtp", "-trace -protocol rmtp", "the rmtp baseline has no tracer hook"},
		{"record with -trials", "-trials 4 -workload mc -trace-record f", "-trace-record/-trace-replay apply to one cell × one trial only"},
		{"replay with -sweep", "-sweep -workload mc -trace-replay f", "-trace-record/-trace-replay apply to one cell × one trial only"},
		{"record without -workload", "-trace-record f", "require -workload"},
		{"record and replay", "-workload mc -trace-record f -trace-replay g", "choose one of"},
		{"record alone", "-workload mc -trace-record f", ""},
		{"workload with -trials", "-trials 2 -workload mc", ""},
		{"fitness on a single run", "-fitness-weights default", "-fitness-weights scores multi-cell/multi-trial reports"},
		{"fitness with -sweep-scale", "-sweep-scale -fitness-weights default", ""},
		{"fitness with -trials", "-trials 2 -fitness-weights default", ""},
		{"fitness with a two-value axis", "-policy two-phase;fixed -fitness-weights default", ""},
		{"-out on a single run", "-out x.json", "-out only applies"},
		{"-out '' on a single run", "-out=", ""},
		{"-out with -sweep", "-sweep -out x.json", ""},
		{"open-ended partition on the scale matrix", "-sweep-scale -partition-at 1s", "-partition-at without -partition-for"},
		{"closed partition on the scale matrix", "-sweep-scale -partition-at 1s -partition-for 1s", ""},
	} {
		_, err := tryParse(strings.Fields(tc.line)...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestParseWorkloadSpec covers the -workload flag: presets, a key=val
// spec, a ';' list of both, and the rejection of anything else (the
// grammar's own cases are internal/workload's TestParseSpec).
func TestParseWorkloadSpec(t *testing.T) {
	workloads := func(v string) []*workload.Spec { return parse(t, "-workload", v, "-trials", "2").sw.Workloads }
	if wl := workloads("mc"); len(wl) != 1 || wl[0].Clients != 8 {
		t.Fatalf("preset mc = %+v", wl)
	}
	if wl := workloads("vod"); len(wl) != 1 || wl[0].LateJoinFrac != 0.25 {
		t.Fatalf("preset vod = %+v", wl)
	}
	wl := workloads("bursty; clients=4,msgs=32,arrival=poisson,gap=50ms,zipf=1.1")
	if len(wl) != 2 || wl[0].Arrival != "burst" || wl[1].Clients != 4 || wl[1].ZipfS != 1.1 {
		t.Fatalf("preset;spec list = %+v", wl)
	}
	for _, bad := range []string{
		"bogus-preset",                  // not key=val, not a preset
		"clients=4",                     // msgs missing -> Validate fails
		"clients=4,msgs=8,frobnicate=1", // unknown key
		"mc;",                           // empty list element
	} {
		if _, err := tryParse("-workload", bad); err == nil {
			t.Fatalf("-workload %q accepted", bad)
		}
	}
}

// TestWorkloadRecordReplayByteIdentical is the CLI trace acceptance gate:
// a -workload run that records its timeline and a second run replaying
// that file print byte-identical metrics.
func TestWorkloadRecordReplayByteIdentical(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "mc.trace")
	base := []string{"-regions", "10,10", "-loss", "0.1", "-loss-mode", "hash", "-seed", "7", "-workload", "mc"}
	record := parse(t, append(base, "-trace-record", trace)...)
	replay := parse(t, append(base, "-trace-replay", trace)...)
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
	// Shrink the base matrix, then force the uncustomized shape: the
	// families keep their real cells.
	a := parse(t, "-sweep", "-regions", "6", "-out", out)
	a.customized = false
	if err := runSweep(a); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep exp.Report
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
	if err := runSweep(parse(t, "-regions", "8,8", "-loss", "0.1", "-loss-mode", "hash",
		"-msgs", "10", "-horizon", "3s", "-trials", "2", "-workload", "bursty", "-out", out)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep exp.Report
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

// TestParseDurations covers the partition axis' list parsing (a bare 0
// needs no unit).
func TestParseDurations(t *testing.T) {
	got := parse(t, "-partition-for", "0, 1s,250ms").sw.Partitions
	if len(got) != 3 || got[0] != 0 || got[1] != 1e9 || got[2] != 250e6 {
		t.Fatalf("-partition-for list = %v", got)
	}
	if _, err := tryParse("-partition-for", "1s,bogus"); err == nil {
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
		if err := runSweep(parse(t, "-regions", "8", "-loss", "0.2", "-msgs", "5", "-horizon", "2s",
			"-trials", "2", "-out", out)); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep exp.Report
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
	var rep exp.Report
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

// TestOutOfDomainFlagsRejected pins ROADMAP aim 3 at the CLI: a value
// outside its parameter's domain is a typed error before anything runs.
// Every line below once ran to completion, printing a cell named e.g.
// "loss=NaN" or, for an explicit 0 the library reads as "use the
// default", the default run's metrics.
func TestOutOfDomainFlagsRejected(t *testing.T) {
	const zero = ": 0 would silently run the default"
	for line, want := range map[string]string{
		"-msgs 0":               "flag -msgs" + zero,
		"-gap 0s":               "flag -gap" + zero,
		"-horizon 0s":           "flag -horizon" + zero,
		"-hold 0s":              "flag -hold" + zero,
		"-regions 10 -c 0":      "flag -c" + zero,
		"-lambda 0":             "flag -lambda" + zero,
		"-loss NaN":             "loss NaN",
		"-loss 1.5":             "loss 1.5",
		"-loss -0.5":            "loss -0.5",
		"-churn -3":             "churn rate -3",
		"-loss 1.5 -churn -3":   "loss 1.5",
		"-sweep -crash 0,-1":    "crash rate -1",
		"-gap -20ms":            "gap -20ms",
		"-msgs -5":              "msgs -5",
		"-loss-mode hsah":       `loss mode "hsah"`,
		"-payload-model zipf":   `"zipf"`,
		"-protocol rrmp,":       "empty list element",
		"-policy two-phase;;":   "empty list element",
		"-partition-for 1s,-1s": "partition duration -1s",
	} {
		if _, err := tryParse(strings.Fields(line)...); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rrmp-sim %s: error %v, want one naming %q", line, err, want)
		}
	}
}

// TestOnePinningRule pins the one rule every mode follows: a given axis
// flag pins its axis. At the parent commit -sweep ignored seven scalar
// axis flags (the first line ran loss 0.05/0.20, churn 0/1,
// two-phase/fixed on the standing regions), and the policy list split on
// the spec grammar's own comma ("unknown policy \"tmax=100ms\"").
func TestOnePinningRule(t *testing.T) {
	cells := parse(t, "-sweep", "-loss", "0.33", "-churn", "5", "-policy", "all", "-regions", "7").sw.Expand()
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	for _, sc := range cells {
		if sc.Loss != 0.33 || sc.Churn != 5 || len(sc.Regions) != 1 || sc.Regions[0] != 7 ||
			(sc.Protocol == "" && sc.Policy != "all") {
			t.Fatalf("cell %q escaped a pinned axis", sc.Name())
		}
	}

	a := parse(t, "-policy", "two-phase;adaptive:tmin=20ms,tmax=100ms", "-regions", "6", "-msgs", "3", "-horizon", "1s")
	if a.single {
		t.Fatal("a two-policy axis derived the single-cell mode")
	}
	cells = a.sw.Expand()
	if len(cells) != 2 || !strings.HasSuffix(cells[0].Name(), " policy=two-phase") ||
		!strings.HasSuffix(cells[1].Name(), " policy=adaptive:tmin=20ms,tmax=100ms") {
		t.Fatalf("policy list expanded to %d cells: %v", len(cells), cells)
	}
	if err := runSweep(a); err != nil {
		t.Fatal(err)
	}
	// An alias canonicalizes in the cell name, as in every other door.
	if sc := parse(t, "-policy", "fixed-hold:hold=200ms").sw.Expand()[0]; !strings.HasSuffix(sc.Name(), " policy=fixed:hold=200ms") {
		t.Fatalf("alias spec names the cell %q", sc.Name())
	}
}

// TestFlagCensus pins the folded surface: no -sweep-* twin survives (and
// so no alias for one), and every scenario parameter is one table row.
func TestFlagCensus(t *testing.T) {
	fs := flag.NewFlagSet("rrmp-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parseArgs(fs, nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if strings.HasPrefix(f.Name, "sweep-") && f.Name != "sweep-scale" {
			t.Errorf("twin flag -%s survives", f.Name)
		}
	})
	if n > 36 {
		t.Errorf("%d flags, want at most 36", n)
	}
}

// documentedCommand matches an rrmp-sim invocation with flags in prose,
// a shell block or a Go comment; continuation lines are joined first.
var documentedCommand = regexp.MustCompile(`rrmp-sim (-[^\n]*)`)

// shellFields splits a documented command the way a shell would, for the
// subset the docs use: quotes group, and an unquoted comment, redirection,
// pipe or closing backtick ends the command.
func shellFields(s string) []string {
	var fields []string
	var cur strings.Builder
	var quote rune
	inField := false
	flush := func() {
		if inField {
			fields = append(fields, cur.String())
			cur.Reset()
			inField = false
		}
	}
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inField = r, true
		case r == ' ' || r == '\t':
			flush()
		case strings.ContainsRune("#><|&`()", r):
			flush()
			return fields
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	flush()
	return fields
}

// TestDocumentedCommandLinesParse keeps the docs from rotting: every
// rrmp-sim command line in the README, this command's header comment and
// the verify skill must parse through the flag table, build its
// declaration and validate — nothing is run.
func TestDocumentedCommandLinesParse(t *testing.T) {
	for file, atLeast := range map[string]int{
		"../../README.md":                      30,
		"main.go":                              20,
		"../../.claude/skills/verify/SKILL.md": 8,
	} {
		blob, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.NewReplacer("\\\n//\t", " ", "\\\n", " ").Replace(string(blob))
		lines := documentedCommand.FindAllStringSubmatch(text, -1)
		if len(lines) < atLeast {
			t.Errorf("%s: found %d rrmp-sim command lines, want at least %d (did the extraction rot?)", file, len(lines), atLeast)
		}
		for _, m := range lines {
			if _, err := tryParse(shellFields(m[1])...); err != nil {
				t.Errorf("%s: rrmp-sim %s\n\t%v", file, m[1], err)
			}
		}
	}
}
