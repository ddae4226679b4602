// Command rrmp-sim runs simulated RRMP scenarios and prints metrics:
// topology, workload, loss, churn, crash faults, partitions and policy
// are all flags. Each scenario parameter is one flag, declared once (the
// scenarioFlags table) and written straight into the one sweep declaration
// every mode runs. Axis flags take lists — ',' between numbers, durations
// and protocols; ';' where an element itself contains commas (region
// vectors, tree shapes, policy specs, workload specs) — so a scalar is a
// one-value axis and one rule holds everywhere: a given flag pins its axis.
// The mode is derived from what the flags describe: one cell × one trial
// prints that cell's metrics, anything else prints the per-cell report.
//
// One scenario, one seeded trial — the cell run once on -seed through the
// same kernel every sweep cell runs, printed as its sorted metrics (the
// same cell -trials N would aggregate):
//
//	rrmp-sim -regions 100 -msgs 50 -loss 0.2
//	rrmp-sim -regions 50,50,50 -msgs 20 -loss 0.1 -policy fixed -hold 500ms
//	rrmp-sim -regions 100 -msgs 10 -loss 0.3 -c 12 -seed 7 -trace
//	rrmp-sim -regions 100 -loss 0.2 -crash 1 -crash-recover 500ms
//	rrmp-sim -regions 50,50 -partition-at 1s -partition-for 2s
//
// Multi-trial statistics (mean / stddev / 95% CI across independently
// seeded trials, run on a bounded worker pool), for one cell or for the
// small matrix a few list-valued flags describe:
//
//	rrmp-sim -regions 100 -loss 0.2 -trials 16 -parallel 8
//	rrmp-sim -regions '50;30,30' -loss 0.05,0.2 -policy 'two-phase;fixed' -trials 4
//
// -sweep starts from the standing matrix (regions × loss × churn × crash ×
// partition × policy × payload × budget × protocol) instead of the one-cell
// defaults; given flags pin their axes the same way. The JSON report is
// also written to -out for machine tracking:
//
//	rrmp-sim -sweep -trials 8 -parallel 4 -json
//	rrmp-sim -sweep -crash 0,2 -partition-for 0,1s -trials 4
//	rrmp-sim -sweep -payload 512,2048 -budget 16384 -trials 4
//
// Byte-accurate buffer accounting: -payload/-payload-model set the
// per-message payload size (model: fixed|uniform|lognormal), -budget caps
// each member's buffer in bytes with deterministic pressure eviction, and
// engaged cells report buffer_integral_bytesec / peak_buffered_bytes /
// pressure_evictions / budget_denials.
//
// The protocol axis runs the same cells under the RMTP repair-server
// baseline (rmtp families append after all rrmp cells and report the
// nak_*/ack_* counters instead of RRMP's request/search/handoff keys). A
// seeded cell sees the same publishes, DATA drops and faults under both:
//
//	rrmp-sim -protocol rmtp -regions 30,30 -loss 0.2
//	rrmp-sim -sweep -protocol rrmp,rmtp -trials 8
//
// Multi-client workloads (-workload, a preset or a key=val spec) replace
// the single-sender publish stream with N concurrent publishers under
// per-client arrival processes, Zipf volume skew and optional VoD late
// joiners; -trace-record persists the materialized publish timeline as a
// canonical rrmp-trace/v1 file and -trace-replay drives a run from one
// (same cell and seed → byte-identical metrics). The uncustomized -sweep
// also appends the standing 18-cell workload family after the matrix:
//
//	rrmp-sim -workload mc -regions 30,30 -loss 0.1 -loss-mode hash
//	rrmp-sim -workload vod -regions 12,12 -policy fixed
//	rrmp-sim -workload 'clients=4,msgs=32,arrival=poisson,gap=50ms,zipf=1.1'
//	rrmp-sim -workload mc -trace-record mc.trace
//	rrmp-sim -workload mc -trace-replay mc.trace
//
// Single-run protocol-event traces stream to stderr with -trace and/or to
// a file with -trace-out, for any rrmp cell including -workload ones (both
// flags reject multi-cell/multi-trial runs and -protocol rmtp loudly). The
// trace is a pure function of the seed; its metrics are the untraced run's.
//
// -shards N region-shards each trial's event loop, for either protocol,
// and never changes a report byte. A cell the runner keeps on one loop (a
// traced run, legacy shared-stream loss, one region) is said, with its
// reason, in the report's exec_note or on a single run's stderr:
//
//	rrmp-sim -protocol rmtp -tree 8,4,10000 -loss 0.05 -loss-mode hash -shards 4
//
// Policies come from the central registry: -policy accepts any registered
// kind or alias, optionally parameterized, and -list-policies prints the
// roster with parameter defaults. The uncustomized -sweep also appends the
// 6-cell adaptive-policy family after the workload family, and
// -fitness-weights ranks a report's cells by the weighted multi-objective
// fitness score (delivery up; byte-seconds, unrecoverables and recovery
// latency down) without touching the report:
//
//	rrmp-sim -list-policies
//	rrmp-sim -regions 30,30 -loss 0.2 -policy adaptive:tmin=20ms,tmax=200ms,target=2
//	rrmp-sim -sweep -trials 8 -fitness-weights delivery=1,bytesec=0.5
//
// -sweep-scale starts from the scale matrix instead (members×depth
// balanced trees, plus the 10k/100k rows when uncustomized) and writes the
// same report, to BENCH_scale.json by default:
//
//	rrmp-sim -sweep-scale -trials 3
//	rrmp-sim -sweep-scale -tree 4:3:2000 -trials 1 -out /tmp/scale.json
//
// The report is a pure function of (matrix, -trials, -seed): the same
// seeds produce byte-identical reports at any -parallel width.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	a, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmp-sim:", err)
		os.Exit(2)
	}
	switch {
	case a.listPolicies:
		printPolicyRoster(os.Stdout)
	case a.single:
		err = runSingle(os.Stdout, a)
	default:
		err = runSweep(a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmp-sim:", err)
		os.Exit(1)
	}
}

// sweepArgs is a parsed command line: the mode, execution and output
// settings, plus sw — the one scenario declaration every mode runs, which
// the scenario flags wrote into directly (no field here mirrors one of
// its fields).
type sweepArgs struct {
	sw exp.Sweep
	// sweep and sweepScale pick the base the scenario flags wrote over:
	// the standing matrix, the scale matrix, or (neither) the one-cell
	// defaults.
	sweep      bool
	sweepScale bool
	// single is the derived mode: the declaration is one cell and one
	// trial was asked for, so the run prints that cell instead of a report.
	single bool
	// customized records that a scenario flag or -seed was given. Only an
	// uncustomized standing matrix carries its appended families and
	// defaults -out to the committed record.
	customized   bool
	listPolicies bool
	seed         uint64
	trials       int
	parallel     int
	json         bool
	outPath      string
	// outSet records that -out was given explicitly (it then applies only
	// to the modes that write a report).
	outSet bool
	// quiet suppresses stdout reporting (the in-process golden test only
	// compares the -out files).
	quiet bool
	// The single-run-only outputs and input: protocol-event tracing to
	// stderr and/or a file, and the publish timeline recorded to or
	// replayed from an rrmp-trace/v1 file.
	doTrace     bool
	traceOut    string
	traceRecord string
	traceReplay string
	// fitnessWeights, when non-empty, prints a fitness-ranked cell table
	// after the report ("default" = standing weights). Display-only: it
	// never changes the report bytes.
	fitnessWeights string
}

// scenarioFlag is one scenario parameter: the flag that names it and its
// write into the declaration. A parameter is declared here once and
// nowhere else in this command — no mirror field, no second flag for
// sweeps, no list of names: being a row of the table is what makes a flag
// one that customizes the matrix. Axis rows parse lists (see list), so a
// scalar is a one-value axis and a given flag pins its axis in every mode.
type scenarioFlag struct {
	name, usage string
	boolean     bool // a bare -name means true
	set         func(sw *exp.Sweep, v string) error
}

var scenarioFlags = []scenarioFlag{
	{name: "regions", usage: "region-size vectors (chain hierarchy), ';'-separated: '100', '50,50', '50;100;30,30' (default 100; -sweep: 50;100;30,30)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Regions, err = list(v, ";", parseSizes); return }},
	{name: "star", usage: "attach all regions directly to the sender's region", boolean: true,
		set: func(sw *exp.Sweep, v string) (err error) { sw.Star, err = strconv.ParseBool(v); return }},
	{name: "tree", usage: "balanced tree shapes 'branch,levels,members' (or ':'-separated), ';'-separated; tree cells follow the -regions cells and replace the default -regions 100",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Trees, err = list(v, ";", parseTreeShape); return }},
	{name: "msgs", usage: "messages to publish (default 20)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Msgs, err = nonZero(strconv.Atoi)(v); return }},
	{name: "gap", usage: "inter-message gap (default 20ms)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Gap, err = nonZero(time.ParseDuration)(v); return }},
	{name: "loss", usage: "independent DATA loss probabilities, e.g. 0.2 or 0.05,0.2 (default 0.2; -sweep: 0.05,0.2)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Losses, err = list(v, ",", parseFloat); return }},
	{name: "loss-mode", usage: "loss stream model: '' = legacy shared stream (serial-only), 'hash' = per-sender counter hash (shard-safe, runs parallel under -shards; combine with -burst for the shard-safe Gilbert-Elliott chain)",
		set: func(sw *exp.Sweep, v string) error { sw.LossMode = v; return nil }},
	{name: "burst", usage: "use a Gilbert-Elliott burst loss channel instead", boolean: true,
		set: func(sw *exp.Sweep, v string) (err error) { sw.Burst, err = strconv.ParseBool(v); return }},
	{name: "churn", usage: "graceful leaves per second (Poisson over non-sender members), e.g. 1 or 0,1 (default 0; -sweep: 0,1)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Churns, err = list(v, ",", parseFloat); return }},
	{name: "crash", usage: "crash faults per second (Poisson over non-sender members; no handoff), e.g. 1 or 0,2 (default 0; -sweep: 0,1)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Crashes, err = list(v, ",", parseFloat); return }},
	{name: "crash-recover", usage: "downtime before a crashed member returns (default 0 = crash-stop)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.CrashRecover, err = time.ParseDuration(v); return }},
	{name: "partition-at", usage: "instant to split the group into two halves (default: a quarter of -horizon in cells that partition)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.PartitionAt, err = time.ParseDuration(v); return }},
	{name: "partition-for", usage: "partition durations before the heal event, e.g. 2s or 0,1s; 0 = no partition (default 0, or the whole run given -partition-at; -sweep: 0,1s)",
		set: func(sw *exp.Sweep, v string) (err error) {
			sw.Partitions, err = list(v, ",", time.ParseDuration)
			return
		}},
	{name: "c", usage: "expected long-term bufferers per region (C) (default 6)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.C, err = nonZero(parseFloat)(v); return }},
	{name: "lambda", usage: "expected remote requests per regional loss (lambda) (default 1)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Lambda, err = nonZero(parseFloat)(v); return }},
	{name: "payload", usage: "payload bytes per message, e.g. 1024 or 512,2048; 0 = the historic 256 (default 0; -sweep: 0,1024)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.PayloadSizes, err = list(v, ",", strconv.Atoi); return }},
	{name: "payload-model", usage: "payload size model: fixed|uniform|lognormal (sizes drawn around -payload)",
		set: func(sw *exp.Sweep, v string) error {
			// "fixed" is the default spelled out: it must not engage the
			// payload token of an otherwise legacy cell.
			if v == workload.SizeFixed {
				v = ""
			}
			sw.PayloadModel = v
			return nil
		}},
	{name: "budget", usage: "per-member buffer byte budgets, e.g. 8192 or 0,8192; 0 = unlimited (default 0; -sweep: 0,8192)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Budgets, err = list(v, ",", strconv.Atoi); return }},
	{name: "protocol", usage: "recovery protocols: rrmp (the paper's), rmtp (tree repair-server baseline) or rrmp,rmtp — rmtp families append after all rrmp cells (default rrmp; -sweep: rrmp,rmtp)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Protocols, err = list(v, ",", text); return }},
	{name: "policy", usage: "buffering policy specs, ';'-separated: two-phase, 'two-phase;fixed:hold=200ms', adaptive:tmin=20ms,tmax=200ms,target=2 (rrmp only; rmtp cells always run the repair-server discipline; see -list-policies) (default two-phase; -sweep: two-phase;fixed)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Policies, err = list(v, ";", text); return }},
	{name: "hold", usage: "retention for -policy fixed (default " + policy.DefaultFixedHold.String() + ")",
		set: func(sw *exp.Sweep, v string) (err error) { sw.FixedHold, err = nonZero(time.ParseDuration)(v); return }},
	{name: "horizon", usage: "virtual run time (default 5s)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Horizon, err = nonZero(time.ParseDuration)(v); return }},
	{name: "backoff", usage: "regional repair multicast back-off window (default 0 = immediate)",
		set: func(sw *exp.Sweep, v string) (err error) { sw.RepairBackoff, err = time.ParseDuration(v); return }},
	{name: "workload", usage: "multi-client publish workloads, ';'-separated: a preset (mc|bursty|vod) or 'key=val,...' with keys clients,msgs,arrival(constant|poisson|burst),gap,zipf,burst-len,burst-gap,window(from-to:factor),size-model(fixed|uniform|lognormal),size-mean,late-frac,late-at,late-spread",
		set: func(sw *exp.Sweep, v string) (err error) { sw.Workloads, err = list(v, ";", parseWorkload); return }},
}

// parseArgs parses a command line into the mode, execution and output
// settings and the built, validated declaration. Parse errors are the
// flag set's to report (main's exits 2 on them); everything after —
// a malformed or out-of-domain scenario value, a combination no mode can
// honor — comes back as the error, before anything runs.
func parseArgs(fs *flag.FlagSet, args []string) (sweepArgs, error) {
	a := sweepArgs{seed: 1}
	// Scenario flags only record themselves while parsing: the base they
	// write over depends on -sweep / -sweep-scale, which may come later on
	// the line.
	type givenFlag struct {
		row scenarioFlag
		v   string
	}
	var given []givenFlag
	for _, row := range scenarioFlags {
		record := func(v string) error { given = append(given, givenFlag{row, v}); return nil }
		if row.boolean {
			fs.BoolFunc(row.name, row.usage, record)
		} else {
			fs.Func(row.name, row.usage, record)
		}
	}
	fs.Func("seed", "root random seed (default 1)", func(v string) (err error) {
		a.customized = true
		a.seed, err = strconv.ParseUint(v, 10, 64)
		return
	})
	fs.BoolVar(&a.doTrace, "trace", false, "stream protocol events to stderr (single rrmp cell × one trial only)")
	fs.StringVar(&a.traceOut, "trace-out", "", "write protocol events to this file instead of stderr (single rrmp cell × one trial only)")
	fs.StringVar(&a.traceRecord, "trace-record", "", "write the materialized publish timeline to this file as rrmp-trace/v1 (single -workload cell × one trial only)")
	fs.StringVar(&a.traceReplay, "trace-replay", "", "drive the run from a recorded rrmp-trace/v1 file instead of generating the timeline (single -workload cell × one trial only)")

	fs.BoolVar(&a.sweep, "sweep", false, "start from the standing scenario matrix instead of the one-cell defaults (given scenario flags pin their axes either way)")
	fs.BoolVar(&a.sweepScale, "sweep-scale", false, "start from the scale matrix (members×depth balanced trees) instead of the one-cell defaults")
	fs.IntVar(&a.trials, "trials", 1, "independently seeded trials per scenario cell")
	fs.IntVar(&a.parallel, "parallel", 0, "worker pool size for trials (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "region-sharded event loops per trial (1 = serial; a cell that cannot split says why on stderr or in exec_note; aggregates are byte-identical at any width)")
	fs.BoolVar(&a.json, "json", false, "print the report as JSON instead of a table")
	fs.Func("out", "also write the report JSON here (default BENCH_sweep.json / BENCH_scale.json for an uncustomized -sweep / -sweep-scale; empty = don't)", func(v string) error {
		a.outPath, a.outSet = v, true
		return nil
	})
	fs.BoolVar(&a.listPolicies, "list-policies", false, "print the policy registry roster (kinds, aliases, parameters) and exit")
	fs.StringVar(&a.fitnessWeights, "fitness-weights", "", "print a fitness-ranked cell table after a report: 'key=val,...' weights with keys delivery,bytesec,unrec,recovery ('default' = standing weights; never changes the report bytes)")
	if err := fs.Parse(args); err != nil {
		return a, err
	}

	// The base is the standing matrix the mode names, or the one-cell
	// defaults; the given scenario flags then write over it in
	// command-line order.
	switch {
	case a.sweepScale:
		a.sw = exp.ScaleSweep()
	case a.sweep:
		a.sw = exp.DefaultSweep()
	default:
		a.sw = exp.Sweep{Losses: []float64{0.2}}
	}
	if !a.sweepScale {
		// These six defaults have always been written into every cell of
		// these two bases: BENCH_sweep.json's cells serialize c 6 and
		// lambda 1. The scale matrix never carried them, and
		// BENCH_scale.json's cells keep their bytes.
		a.sw.C, a.sw.Lambda, a.sw.FixedHold = 6, 1, policy.DefaultFixedHold
		a.sw.Msgs, a.sw.Gap, a.sw.Horizon = 20, 20*time.Millisecond, 5*time.Second
	}
	for _, g := range given {
		if err := g.row.set(&a.sw, g.v); err != nil {
			return a, fmt.Errorf("invalid value %q for flag -%s: %w", g.v, g.row.name, err)
		}
	}
	a.customized = a.customized || len(given) > 0
	a.sw.Shards = *shards
	// -partition-at without -partition-for is an open-ended partition: it
	// runs to the horizon. (The axis encodes "no partition" as duration 0,
	// so the open end has to be spelled as a duration.)
	if a.sw.PartitionAt > 0 && len(a.sw.Partitions) == 0 {
		if a.sw.Horizon <= 0 {
			return a, fmt.Errorf("-partition-at without -partition-for runs to -horizon, which this matrix leaves to its cells: give one of them")
		}
		a.sw.Partitions = []time.Duration{a.sw.Horizon}
	}
	if err := a.sw.Validate(); err != nil {
		return a, err
	}
	// A -sweep-scale run is a report even when it is one cell.
	a.single = !a.sweepScale && a.trials <= 1 && len(a.sw.Expand()) == 1
	if err := checkFlags(a); err != nil {
		return a, err
	}
	// The committed records track the *standing* matrices, so they are the
	// default -out only when nothing that changes cell semantics was
	// given; customized sweeps and ad-hoc multi-trial runs must not clobber
	// them. (-trials/-parallel/-shards/-json stay allowed: trial count is
	// visible in the report and execution width never changes its bytes.)
	if !a.outSet && !a.customized {
		switch {
		case a.sweepScale:
			a.outPath = "BENCH_scale.json"
		case a.sweep:
			a.outPath = "BENCH_sweep.json"
		}
	}
	return a, nil
}

// checkFlags rejects flag combinations no mode can honor, before anything
// runs.
func checkFlags(a sweepArgs) error {
	tracing := a.doTrace || a.traceOut != ""
	timeline := a.traceRecord != "" || a.traceReplay != ""
	switch {
	// Tracing observes one deterministic run; a parallel sweep would
	// interleave members of many trials into the same stream.
	case tracing && !a.single:
		return fmt.Errorf("-trace/-trace-out apply to one cell × one trial only")
	case tracing && slices.Contains(a.sw.Protocols, "rmtp"):
		return fmt.Errorf("-trace/-trace-out observe the rrmp engine; the rmtp baseline has no tracer hook")
	// Timeline traces bind one (workload, seed) pair to one file; sweeps
	// and multi-trial runs have many timelines.
	case timeline && !a.single:
		return fmt.Errorf("-trace-record/-trace-replay apply to one cell × one trial only")
	case timeline && len(a.sw.Workloads) == 0:
		return fmt.Errorf("-trace-record/-trace-replay require -workload (the spec names the cell the timeline belongs to)")
	case a.traceRecord != "" && a.traceReplay != "":
		return fmt.Errorf("choose one of -trace-record or -trace-replay")
	case a.fitnessWeights != "" && a.single:
		return fmt.Errorf("-fitness-weights scores multi-cell/multi-trial reports (use with -sweep, list-valued flags or -trials > 1)")
	case a.outSet && a.outPath != "" && a.single:
		return fmt.Errorf("-out only applies to a report (several cells, -sweep-scale or -trials > 1)")
	}
	return nil
}

// printPolicyRoster prints the policy registry in listing order: one line
// per kind with its aliases and summary, then one indented line per
// parameter with its default (the -policy grammar).
func printPolicyRoster(w io.Writer) {
	for _, info := range policy.Known() {
		name := info.Kind
		if len(info.Aliases) > 0 {
			name += " (" + strings.Join(info.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "%-24s %s\n", name, info.Summary)
		for _, p := range info.Params {
			fmt.Fprintf(w, "    %-10s default %-8s %s\n", p.Name+"=", p.Default, p.Doc)
		}
	}
}

// list parses one axis flag's value: the elements between sep, each through
// parse. sep is ',' for numbers, durations and protocol names, and ';'
// where an element itself contains commas.
func list[T any](s, sep string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, elem := range strings.Split(s, sep) {
		v, err := parse(strings.TrimSpace(elem))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// text is the element parser of token axes (protocols, policy specs), whose
// tokens Sweep.Validate checks against their registries. An empty element
// (a trailing separator) is a typo here, though the library reads "" as the
// default token.
func text(s string) (string, error) {
	if s == "" {
		return "", fmt.Errorf("empty list element")
	}
	return s, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// nonZero wraps the parser of a scalar whose 0 exp.Sweep reads as "use the
// default": given on the command line, 0 would silently run the default,
// so it is refused.
func nonZero[T int | float64 | time.Duration](parse func(string) (T, error)) func(string) (T, error) {
	return func(s string) (T, error) {
		v, err := parse(s)
		if err == nil && v == 0 {
			err = errors.New("0 would silently run the default; give a positive value")
		}
		return v, err
	}
}

// parseSizes parses one comma-separated region-size vector.
func parseSizes(s string) ([]int, error) { return list(s, ",", strconv.Atoi) }

// parseTreeShape parses one 'branch,levels,members' (or colon-separated)
// balanced-tree spec.
func parseTreeShape(spec string) (exp.TreeShape, error) {
	sep := ","
	if strings.Contains(spec, ":") {
		sep = ":"
	}
	vals, err := list(spec, sep, strconv.Atoi)
	if err != nil {
		return exp.TreeShape{}, fmt.Errorf("tree spec %q: %w", spec, err)
	}
	if len(vals) != 3 {
		return exp.TreeShape{}, fmt.Errorf("tree spec %q: want branch%slevels%smembers", spec, sep, sep)
	}
	return exp.TreeShape{Branch: vals[0], Levels: vals[1], Members: vals[2]}, nil
}

// parseWorkload parses one -workload element: a standing preset's name, or
// a key=val spec in the workload package's grammar.
func parseWorkload(s string) (*workload.Spec, error) {
	if spec := exp.WorkloadPreset(s); spec != nil {
		return spec, nil
	}
	return workload.ParseSpec(s)
}

// runSweep runs the declaration's cells × -trials through one pool and
// reports per-cell aggregates.
func runSweep(a sweepArgs) error {
	// The uncustomized -sweep is the standing matrix plus the workload and
	// adaptive-policy families, and the uncustomized -sweep-scale is the
	// scale matrix plus its XL rows, each run through one pool into one
	// report — the shapes BENCH_sweep.json and BENCH_scale.json record.
	// Each family's cells append after all earlier cells, so a committed
	// record grows without a single pre-existing cell moving or re-byting.
	sweeps := []exp.Sweep{a.sw}
	if !a.customized {
		switch {
		case a.sweepScale:
			sweeps = append(sweeps, exp.ScaleSweepXL())
		case a.sweep:
			sweeps = append(sweeps, exp.WorkloadSweep(), exp.AdaptiveSweep())
		}
	}
	for i := range sweeps {
		sweeps[i].Shards = a.sw.Shards
	}
	rep, err := runner.RunSweeps(exp.Options{
		Trials:   a.trials,
		Parallel: a.parallel,
		BaseSeed: a.seed,
	}, sweeps...)
	if err != nil {
		return err
	}

	if err := emitReport(a, rep); err != nil {
		return err
	}
	if a.fitnessWeights != "" && !a.quiet {
		if err := printFitness(os.Stdout, rep, a.fitnessWeights); err != nil {
			return err
		}
	}
	return nil
}

// printFitness prints the fitness-ranked cell table -fitness-weights asks
// for. Pure display over the finished report: the report bytes (stdout
// JSON and -out file) are already written when this runs.
func printFitness(w io.Writer, rep exp.Report, spec string) error {
	if spec == "default" {
		spec = ""
	}
	weights, err := exp.ParseFitnessWeights(spec)
	if err != nil {
		return err
	}
	rows := runner.SweepFitness(rep, weights)
	fmt.Fprintf(w, "\nfitness ranking (weights: delivery=%g bytesec=%g unrec=%g recovery=%g; costs normalized over %d cells)\n",
		weights.Delivery, weights.ByteSeconds, weights.Unrecoverable, weights.RecoveryMs, len(rows))
	fmt.Fprintf(w, "%4s %8s %9s %14s %13s %14s  %s\n",
		"rank", "fitness", "delivery", runner.MKUnrecoverable, "recovery(ms)", "buffer(B·s)", "cell")
	for i, r := range rows {
		fmt.Fprintf(w, "%4d %8.3f %8.2f%% %14.1f %13.1f %14.0f  %s\n",
			i+1, r.Score, 100*r.Delivery, r.Unrecoverable, r.RecoveryMs, r.ByteSeconds, r.Name)
	}
	return nil
}

// emitReport prints a finished report — as indented JSON under -json,
// else as printReport's table — and writes the same JSON bytes to -out.
func emitReport(a sweepArgs, rep exp.Report) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	switch {
	case a.quiet:
	case a.json:
		os.Stdout.Write(blob)
	default:
		printReport(rep)
	}
	if a.outPath != "" {
		if err := os.WriteFile(a.outPath, blob, 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d cells × %d trials)\n", a.outPath, len(rep.Cells), rep.Trials)
	}
	return nil
}

// printReport prints the human-readable sweep table: headline metrics as
// mean ± 95% CI per cell.
func printReport(rep exp.Report) {
	fmt.Printf("sweep: %d cells × %d trials (base seed %d)\n\n", len(rep.Cells), rep.Trials, rep.BaseSeed)
	// Byte columns appear only when some cell engages the byte axes, so
	// purely legacy sweeps keep their historical table width.
	bytesSwept := false
	for _, cell := range rep.Cells {
		if _, ok := cell.Aggregate.Metric(runner.MKBufferIntegralByteSec); ok {
			bytesSwept = true
			break
		}
	}
	byteCols := func(cell exp.Cell) string {
		if !bytesSwept {
			return ""
		}
		return fmt.Sprintf(" %18s %10s",
			meanOnly(cell.Aggregate, runner.MKBufferIntegralByteSec, "%.0f"),
			meanOnly(cell.Aggregate, runner.MKPressureEvictions, "%.0f"))
	}
	byteHeader := ""
	if bytesSwept {
		byteHeader = fmt.Sprintf(" %18s %10s", "buffer(B·s)", "pressure")
	}
	fmt.Printf("%-52s %16s %12s %16s %18s%s %14s\n",
		"cell", "delivery", "min-reach", "recovery(ms)", "buffer(msg·s)", byteHeader, "packets")
	for _, cell := range rep.Cells {
		fmt.Printf("%-52s %16s %12s %16s %18s%s %14s\n",
			cell.Name,
			meanCI(cell.Aggregate, runner.MKDeliveryRatio, "%.3f"),
			meanOnly(cell.Aggregate, runner.MKMinReachFrac, "%.2f"),
			meanCI(cell.Aggregate, runner.MKMeanRecoveryMs, "%.1f"),
			meanCI(cell.Aggregate, runner.MKBufferIntegralMsgSec, "%.1f"),
			byteCols(cell),
			meanOnly(cell.Aggregate, runner.MKPacketsSent, "%.0f"),
		)
	}
}

// meanCI formats a metric as "mean±ci" ("-" when absent).
func meanCI(agg exp.Aggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb+"±"+verb, m.Mean, m.CI95)
}

// meanOnly formats a metric's mean ("-" when absent).
func meanOnly(agg exp.Aggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb, m.Mean)
}

// runSingle runs the one cell the flags describe once, seeded with -seed
// itself, through the kernel every sweep cell runs (the cell -trials N
// aggregates, under the protocol -protocol names), and prints the cell's
// metrics sorted by key. Only a single run can be traced (-trace,
// -trace-out), record its publish timeline (-trace-record) or replay one
// (-trace-replay).
func runSingle(w io.Writer, a sweepArgs) error {
	sc := a.sw.Expand()[0]

	// nil = the kernel materializes the cell's own timeline; a recording
	// run materializes it here instead, so the file holds what ran.
	var timeline workload.Timeline
	var err error
	switch {
	case a.traceReplay != "":
		timeline, err = readTimeline(a.traceReplay)
	case a.traceRecord != "":
		timeline, _, err = runner.TimelineFor(sc, a.seed)
	}
	if err != nil {
		return err
	}

	var sinks []io.Writer
	if a.doTrace {
		sinks = append(sinks, os.Stderr)
	}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if a.traceOut != "" {
		if traceFile, err = os.Create(a.traceOut); err != nil {
			return fmt.Errorf("opening trace output: %w", err)
		}
		defer traceFile.Close() // error paths; success checks Close below
		traceBuf = bufio.NewWriter(traceFile)
		sinks = append(sinks, traceBuf)
	}
	// A nil tracer is "off"; keep the interface nil when there is no sink.
	var tracer trace.Tracer
	lines := &trace.Writer{W: io.MultiWriter(sinks...)}
	if len(sinks) > 0 {
		tracer = lines
	}
	// -shards never changes the metrics, but say when it cannot apply
	// instead of letting the flag look like a no-op.
	if note := runner.ExecNote(tracer, a.sw); note != "" {
		fmt.Fprintln(os.Stderr, "rrmp-sim:", note)
	}

	m, err := runner.RunScenarioWith(sc, a.seed, timeline, tracer)
	if err != nil {
		return err
	}
	// A trace cut short (full disk, ...) is an error, not an exit-0
	// truncated file: the sink's first failed write, else the flush, then
	// the close.
	err = lines.Err()
	if err == nil && traceBuf != nil {
		err = traceBuf.Flush()
	}
	if err != nil {
		return fmt.Errorf("writing trace output: %w", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("closing trace output: %w", err)
		}
	}
	if a.traceRecord != "" {
		if err := writeTimeline(a.traceRecord, timeline); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "cell: %s (seed %d)\n", sc.Name(), a.seed)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %g\n", k, m[k])
	}
	return nil
}

// readTimeline loads a recorded rrmp-trace/v1 publish timeline.
func readTimeline(path string) (workload.Timeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	tl, err := workload.Replay(f)
	if err != nil {
		return nil, fmt.Errorf("replaying %s: %w", path, err)
	}
	return tl, nil
}

// writeTimeline records a publish timeline as rrmp-trace/v1.
func writeTimeline(path string, tl workload.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace: %w", err)
	}
	if err := workload.Record(f, tl); err != nil {
		f.Close()
		return fmt.Errorf("recording trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d events, %d clients)\n", path, len(tl), tl.Clients())
	return nil
}
