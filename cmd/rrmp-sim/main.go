// Command rrmp-sim runs simulated RRMP scenarios and prints metrics:
// topology, workload, loss, churn, crash faults, partitions and policy
// are all flags. The scenario flags translate into one sweep declaration
// (buildSweep) whatever the mode; the modes differ only in how many cells
// and trials of it they run.
//
// One scenario, one seeded trial — the single cell the flags describe, run
// once on -seed through the same kernel every sweep cell runs, printed as
// the cell's sorted metrics (the same cell -trials N would aggregate):
//
//	rrmp-sim -regions 100 -msgs 50 -loss 0.2
//	rrmp-sim -regions 50,50,50 -msgs 20 -loss 0.1 -policy fixed -hold 500ms
//	rrmp-sim -regions 100 -msgs 10 -loss 0.3 -c 12 -seed 7 -trace
//	rrmp-sim -regions 100 -loss 0.2 -crash 1 -crash-recover 500ms
//	rrmp-sim -regions 50,50 -partition-at 1s -partition-for 2s
//
// Multi-trial statistics for one scenario (mean / stddev / 95% CI across
// independently seeded trials, run on a bounded worker pool):
//
//	rrmp-sim -regions 100 -loss 0.2 -trials 16 -parallel 8
//
// A full scenario sweep (regions × loss × churn × crash × partition ×
// policy matrix; -sweep-* flags override the default matrix), with the
// JSON report also written to -out for machine tracking:
//
//	rrmp-sim -sweep -trials 8 -parallel 4 -json
//	rrmp-sim -sweep -sweep-crashes 0,2 -sweep-partitions 0,1s -trials 4
//	rrmp-sim -sweep -sweep-payloads 512,2048 -budget 16384 -trials 4
//
// Byte-accurate buffer accounting: -payload/-payload-model set the
// per-message payload size (model: fixed|uniform|lognormal), -budget caps
// each member's buffer in bytes with deterministic pressure eviction, and
// engaged cells report buffer_integral_bytesec / peak_buffered_bytes /
// pressure_evictions / budget_denials.
//
// The protocol axis runs the same cells under the RMTP repair-server
// baseline (-protocol rmtp for one cell, -sweep-protocols rrmp,rmtp for a
// matrix; rmtp families append after all rrmp cells and report the
// nak_*/ack_* counters instead of RRMP's request/search/handoff keys). A
// seeded cell sees the same publishes, DATA drops and faults under both:
//
//	rrmp-sim -protocol rmtp -regions 30,30 -loss 0.2
//	rrmp-sim -sweep -sweep-protocols rrmp,rmtp -trials 8
//
// Multi-client workloads (-workload, a preset or a key=val spec) replace
// the single-sender publish stream with N concurrent publishers under
// per-client arrival processes, Zipf volume skew and optional VoD late
// joiners; -trace-record persists the materialized publish timeline as a
// canonical rrmp-trace/v1 file and -trace-replay drives a run from one
// (same cell and seed → byte-identical metrics). The default -sweep also
// appends the standing 18-cell workload family after the legacy matrix:
//
//	rrmp-sim -workload mc -regions 30,30 -loss 0.1 -loss-mode hash
//	rrmp-sim -workload vod -regions 12,12 -policy fixed
//	rrmp-sim -workload 'clients=4,msgs=32,arrival=poisson,gap=50ms,zipf=1.1'
//	rrmp-sim -workload mc -trace-record mc.trace
//	rrmp-sim -workload mc -trace-replay mc.trace
//
// Single-run protocol-event traces stream to stderr with -trace and/or to
// a file with -trace-out, for any rrmp cell including -workload ones (both
// flags reject sweep/multi-trial modes and -protocol rmtp loudly). A
// traced run takes one event loop whatever -shards says, so the trace is
// a pure function of the seed; its metrics are the untraced run's.
//
// Policies come from the central registry: -policy (and -sweep-policies)
// accept any registered kind or alias, optionally parameterized, and
// -list-policies prints the roster with parameter defaults. The default
// -sweep also appends the 6-cell adaptive-policy family after the
// workload family, and -fitness-weights ranks a sweep's cells by the
// weighted multi-objective fitness score (delivery up; byte-seconds,
// unrecoverables and recovery latency down) without touching the report:
//
//	rrmp-sim -list-policies
//	rrmp-sim -regions 30,30 -loss 0.2 -policy adaptive:tmin=20ms,tmax=200ms,target=2
//	rrmp-sim -sweep -trials 8 -fitness-weights delivery=1,bytesec=0.5
//
// The report is a pure function of (matrix, -trials, -seed): the same
// seeds produce byte-identical aggregates at any -parallel width.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/trace"
)

func main() {
	var a sweepArgs
	flag.StringVar(&a.regionsCSV, "regions", "100", "comma-separated region sizes (chain hierarchy)")
	flag.BoolVar(&a.star, "star", false, "attach all regions directly to the sender's region")
	flag.StringVar(&a.tree, "tree", "", "balanced tree topology 'branch,levels,members' (overrides -regions)")
	flag.IntVar(&a.msgs, "msgs", 20, "messages to publish")
	flag.DurationVar(&a.gap, "gap", 20*time.Millisecond, "inter-message gap")
	flag.Float64Var(&a.loss, "loss", 0.2, "independent DATA loss probability")
	flag.StringVar(&a.lossMode, "loss-mode", "", "loss stream model: '' = legacy shared stream (serial-only), 'hash' = per-sender counter hash (shard-safe, runs parallel under -shards; combine with -burst for the shard-safe Gilbert-Elliott chain)")
	flag.BoolVar(&a.burst, "burst", false, "use a Gilbert-Elliott burst loss channel instead")
	flag.Float64Var(&a.churn, "churn", 0, "graceful leaves per second (Poisson over non-sender members)")
	flag.Float64Var(&a.crash, "crash", 0, "crash faults per second (Poisson over non-sender members; no handoff)")
	flag.DurationVar(&a.crashRecover, "crash-recover", 0, "downtime before a crashed member returns (0 = crash-stop)")
	flag.DurationVar(&a.partitionAt, "partition-at", 0, "instant to split the group into two halves (0 = never)")
	flag.DurationVar(&a.partitionFor, "partition-for", 0, "partition duration before the heal event (0 = never heals)")
	flag.Float64Var(&a.c, "c", 6, "expected long-term bufferers per region (C)")
	flag.Float64Var(&a.lambda, "lambda", 1, "expected remote requests per regional loss (lambda)")
	flag.IntVar(&a.payload, "payload", 0, "payload bytes per message (0 = the historic 256)")
	flag.StringVar(&a.payloadModel, "payload-model", "", "payload size model: fixed|uniform|lognormal (sizes drawn around -payload)")
	flag.IntVar(&a.budget, "budget", 0, "per-member buffer byte budget (0 = unlimited)")
	flag.StringVar(&a.protocol, "protocol", "rrmp", "recovery protocol: rrmp (the paper's) or rmtp (tree repair-server baseline)")
	flag.StringVar(&a.policy, "policy", "two-phase", "buffering policy spec, e.g. two-phase, fixed:hold=200ms or adaptive:tmin=20ms,tmax=200ms,target=2 (rrmp only; rmtp cells always run the repair-server discipline; see -list-policies)")
	flag.DurationVar(&a.hold, "hold", 500*time.Millisecond, "retention for -policy fixed")
	flag.Uint64Var(&a.seed, "seed", 1, "root random seed")
	flag.DurationVar(&a.horizon, "horizon", 5*time.Second, "virtual run time")
	flag.BoolVar(&a.doTrace, "trace", false, "stream protocol events to stderr (single-trial rrmp mode only; a traced run is serial whatever -shards says)")
	flag.StringVar(&a.traceOut, "trace-out", "", "write protocol events to this file instead of stderr (single-trial rrmp mode only)")
	flag.DurationVar(&a.backoff, "backoff", 0, "regional repair multicast back-off window (0 = immediate)")
	flag.StringVar(&a.workload, "workload", "", "multi-client publish workload: a preset (mc|bursty|vod) or 'key=val,...' with keys clients,msgs,arrival(constant|poisson|burst),gap,zipf,burst-len,burst-gap,window(from-to:factor),size-model(fixed|uniform|lognormal),size-mean,late-frac,late-at,late-spread")
	flag.StringVar(&a.traceRecord, "trace-record", "", "write the materialized publish timeline to this file as rrmp-trace/v1 (single-trial -workload mode only)")
	flag.StringVar(&a.traceReplay, "trace-replay", "", "drive the run from a recorded rrmp-trace/v1 file instead of generating the timeline (single-trial -workload mode only)")

	flag.BoolVar(&a.sweep, "sweep", false, "run the scenario matrix instead of a single scenario")
	flag.BoolVar(&a.sweepScale, "sweep-scale", false, "run the scale matrix (members×depth balanced trees) and record wall-clock + events/sec")
	flag.IntVar(&a.trials, "trials", 1, "independently seeded trials per scenario cell")
	flag.IntVar(&a.parallel, "parallel", 0, "worker pool size for trials (0 = GOMAXPROCS)")
	flag.IntVar(&a.shards, "shards", 1, "region-sharded event loops per trial (1 = serial; aggregates are byte-identical at any width)")
	flag.BoolVar(&a.json, "json", false, "print the sweep report as JSON instead of a table")
	flag.StringVar(&a.outPath, "out", "", "also write the sweep report JSON here (default BENCH_sweep.json for a default-matrix -sweep; empty = don't)")

	flag.StringVar(&a.swRegions, "sweep-regions", "", "region vectors to sweep, e.g. '50;100;50,50' (default 50;100;30,30)")
	flag.StringVar(&a.swLosses, "sweep-losses", "", "loss rates to sweep, e.g. '0.05,0.2' (default 0.05,0.2)")
	flag.StringVar(&a.swChurns, "sweep-churns", "", "churn rates to sweep, e.g. '0,1' (default 0,1)")
	flag.StringVar(&a.swCrashes, "sweep-crashes", "", "crash rates to sweep, e.g. '0,1' (default 0,1)")
	flag.StringVar(&a.swPartitions, "sweep-partitions", "", "partition durations to sweep, e.g. '0,1s' (default 0,1s; 0 = no partition)")
	flag.StringVar(&a.swPolicies, "sweep-policies", "", "policies to sweep, e.g. 'two-phase,fixed' (default two-phase,fixed)")
	flag.StringVar(&a.swTrees, "sweep-trees", "", "tree shapes to sweep as 'branch:levels:members;...' (adds tree cells to -sweep; overrides the -sweep-scale grid)")
	flag.StringVar(&a.swPayloads, "sweep-payloads", "", "payload sizes to sweep, e.g. '0,1024' (default 0,1024; 0 = historic 256)")
	flag.StringVar(&a.swBudgets, "sweep-budgets", "", "buffer byte budgets to sweep, e.g. '0,8192' (default 0,8192; 0 = unlimited)")
	flag.StringVar(&a.swProtocols, "sweep-protocols", "", "protocols to sweep, e.g. 'rrmp,rmtp' (default rrmp,rmtp; rmtp families append after all rrmp cells)")

	listPolicies := flag.Bool("list-policies", false, "print the policy registry roster (kinds, aliases, parameters) and exit")
	flag.StringVar(&a.fitnessWeights, "fitness-weights", "", "print a fitness-ranked cell table after a sweep: 'key=val,...' weights with keys delivery,bytesec,unrec,recovery ('default' = standing weights; never changes the report bytes)")
	flag.Parse()

	if *listPolicies {
		printPolicyRoster(os.Stdout)
		return
	}

	// The committed record tracks the *default* matrix, so it is only the
	// default target when no flag that changes cell semantics was given;
	// customized sweeps and ad-hoc multi-trial runs must not clobber it.
	// (-trials/-parallel/-json stay allowed: trial count is visible in the
	// report and parallelism never changes its bytes.)
	matrixCustomized := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "out":
			a.outSet = true
		case "protocol":
			a.protocolSet = true
			matrixCustomized = true
		case "regions", "star", "tree", "burst", "msgs", "gap", "horizon", "hold",
			"c", "lambda", "backoff", "seed", "churn", "loss", "loss-mode", "policy",
			"crash", "crash-recover", "partition-at", "partition-for",
			"payload", "payload-model", "budget",
			"workload", "trace-record", "trace-replay",
			"sweep-regions", "sweep-losses", "sweep-churns", "sweep-crashes",
			"sweep-partitions", "sweep-policies", "sweep-trees",
			"sweep-payloads", "sweep-budgets", "sweep-protocols":
			matrixCustomized = true
		}
	})
	if err := checkFlags(a); err != nil {
		fmt.Fprintln(os.Stderr, "rrmp-sim:", err)
		os.Exit(2)
	}
	// The same goes for the scale record: regenerated per PR (its
	// wall-clock fields are the point), never clobbered by a customized
	// scale matrix.
	if !a.outSet && !matrixCustomized {
		switch {
		case a.sweepScale:
			a.outPath = "BENCH_scale.json"
		case a.sweep:
			a.outPath = "BENCH_sweep.json"
		}
	}
	a.workloadFamily = a.sweep && !matrixCustomized

	var err error
	switch {
	case a.sweepScale:
		err = runScale(a)
	case a.sweep || a.trials > 1:
		err = runSweep(a)
	default:
		err = runSingle(os.Stdout, a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmp-sim:", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag combinations no mode can honor, before anything
// runs. main exits 2 on its error.
func checkFlags(a sweepArgs) error {
	multi := a.sweep || a.sweepScale || a.trials > 1
	tracing := a.doTrace || a.traceOut != ""
	timeline := a.traceRecord != "" || a.traceReplay != ""
	switch {
	// Tracing observes one deterministic run; a parallel sweep would
	// interleave members of many trials into the same stream.
	case tracing && multi:
		return fmt.Errorf("-trace/-trace-out apply to single-trial mode only")
	case tracing && a.protocol == "rmtp":
		return fmt.Errorf("-trace/-trace-out observe the rrmp engine; the rmtp baseline has no tracer hook")
	// Timeline traces bind one (workload, seed) pair to one file; sweeps
	// and multi-trial runs have many timelines.
	case timeline && multi:
		return fmt.Errorf("-trace-record/-trace-replay apply to single-trial mode only")
	case timeline && a.workload == "":
		return fmt.Errorf("-trace-record/-trace-replay require -workload (the spec names the cell the timeline belongs to)")
	case a.traceRecord != "" && a.traceReplay != "":
		return fmt.Errorf("choose one of -trace-record or -trace-replay")
	case a.workload != "" && a.sweepScale:
		return fmt.Errorf("-workload does not apply to -sweep-scale")
	case a.fitnessWeights != "" && (a.sweepScale || !(a.sweep || a.trials > 1)):
		return fmt.Errorf("-fitness-weights scores sweep/multi-trial reports (use with -sweep or -trials > 1)")
	case a.outSet && a.outPath != "" && !multi:
		return fmt.Errorf("-out only applies with -sweep, -sweep-scale or -trials > 1")
	}
	return nil
}

// printPolicyRoster prints the policy registry in listing order: one line
// per kind with its aliases and summary, then one indented line per
// parameter with its default (the -policy / -sweep-policies grammar).
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

// parseSizes parses one comma-separated region-size vector.
func parseSizes(csv string) ([]int, error) {
	sizes, err := parseInts(csv)
	if err != nil {
		return nil, fmt.Errorf("region sizes: %w", err)
	}
	return sizes, nil
}

// parseInts parses a comma-separated list of non-negative ints ("0"
// entries allowed — both the region and byte axes use 0 as a meaningful
// default, and neither has a legal negative value).
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", csv, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("parsing %q: negative value %d", csv, n)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseTreeShape parses one 'branch,levels,members' (or colon-separated)
// balanced-tree spec.
func parseTreeShape(spec string) (repro.TreeShape, error) {
	sep := ","
	if strings.Contains(spec, ":") {
		sep = ":"
	}
	parts := strings.Split(spec, sep)
	if len(parts) != 3 {
		return repro.TreeShape{}, fmt.Errorf("tree spec %q: want branch%slevels%smembers", spec, sep, sep)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return repro.TreeShape{}, fmt.Errorf("tree spec %q: %w", spec, err)
		}
		vals[i] = v
	}
	return repro.TreeShape{Branch: vals[0], Levels: vals[1], Members: vals[2]}, nil
}

// parseTreeShapes parses a semicolon-separated list of tree specs.
func parseTreeShapes(csv string) ([]repro.TreeShape, error) {
	var out []repro.TreeShape
	for _, spec := range strings.Split(csv, ";") {
		t, err := parseTreeShape(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// parseDurations parses a comma-separated duration list; a bare "0" is
// allowed (no unit needed for the zero value).
func parseDurations(csv string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "0" {
			out = append(out, 0)
			continue
		}
		v, err := time.ParseDuration(f)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweepArgs are the parsed flags. Every mode reads the scenario fields
// through buildSweep; the rest select the mode and its outputs.
type sweepArgs struct {
	sweep      bool
	sweepScale bool
	regionsCSV string
	star       bool
	tree       string
	msgs       int
	gap        time.Duration
	loss       float64
	// lossMode sets Sweep.LossMode: "" is the legacy shared stream,
	// "hash" the shard-safe per-sender counter hash. Part of cell
	// identity (it changes which packets drop), unlike shards.
	lossMode     string
	burst        bool
	churn        float64
	crash        float64
	crashRecover time.Duration
	partitionAt  time.Duration
	partitionFor time.Duration
	c            float64
	lambda       float64
	backoff      time.Duration
	policy       string
	hold         time.Duration
	payload      int
	payloadModel string
	budget       int
	protocol     string
	// protocolSet records that -protocol was given explicitly, so even
	// the default value "rrmp" pins the sweep's protocol axis.
	protocolSet bool
	seed        uint64
	horizon     time.Duration
	trials      int
	parallel    int
	// shards sets Sweep.Shards: region-sharded event loops per trial.
	// Execution-only (like parallel) — aggregates stay byte-identical.
	shards  int
	json    bool
	outPath string
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
	// workload, when set, pins the sweep's workload axis to one parsed
	// -workload spec (multi-trial statistics for a workload cell).
	workload string
	// workloadFamily appends the standing WorkloadSweep matrix and the
	// AdaptiveSweep policy family after the main sweep — the default
	// -sweep shape BENCH_sweep.json records.
	workloadFamily bool
	// fitnessWeights, when non-empty, prints a fitness-ranked cell table
	// after the report ("default" = standing weights). Display-only: it
	// never changes the report bytes.
	fitnessWeights string
	swRegions      string
	swLosses       string
	swChurns       string
	swCrashes      string
	swPartitions   string
	swPolicies     string
	swTrees        string
	swPayloads     string
	swBudgets      string
	swProtocols    string
}

// buildSweep is the one translation from flags to a scenario declaration:
// the matrix under -sweep, otherwise the single cell the scalar flags
// describe. Every mode — sweep, multi-trial, single run — runs what this
// returns, so a cell means the same thing in all of them.
func buildSweep(a sweepArgs) (repro.Sweep, error) {
	var sw repro.Sweep
	if a.payload < 0 || a.budget < 0 {
		return sw, fmt.Errorf("-payload and -budget must be non-negative (got %d, %d)", a.payload, a.budget)
	}
	// Single-cell modes partition only when -partition-at is set ("0 =
	// never"); the axis encodes "none" as duration 0. An open-ended
	// partition (-partition-at without -partition-for) runs to the horizon.
	pf := time.Duration(0)
	if a.partitionAt > 0 {
		pf = a.partitionFor
		if pf <= 0 {
			pf = a.horizon
		}
	}

	if a.sweep {
		sw = repro.DefaultSweep()
		if a.swRegions != "" {
			sw.Regions = nil
			for _, vec := range strings.Split(a.swRegions, ";") {
				sizes, err := parseSizes(vec)
				if err != nil {
					return sw, err
				}
				sw.Regions = append(sw.Regions, sizes)
			}
		}
		var err error
		if a.swLosses != "" {
			if sw.Losses, err = parseFloats(a.swLosses); err != nil {
				return sw, err
			}
		}
		if a.swChurns != "" {
			if sw.Churns, err = parseFloats(a.swChurns); err != nil {
				return sw, err
			}
		}
		if a.swCrashes != "" {
			if sw.Crashes, err = parseFloats(a.swCrashes); err != nil {
				return sw, err
			}
		}
		if a.swPartitions != "" {
			if sw.Partitions, err = parseDurations(a.swPartitions); err != nil {
				return sw, err
			}
		}
		if a.swPolicies != "" {
			sw.Policies = nil
			for _, p := range strings.Split(a.swPolicies, ",") {
				sw.Policies = append(sw.Policies, strings.TrimSpace(p))
			}
		}
		if a.swTrees != "" {
			trees, err := parseTreeShapes(a.swTrees)
			if err != nil {
				return sw, err
			}
			sw.Trees = trees
		}
	} else {
		// One cell: the scalar flags pin every axis to a single value.
		sw = repro.Sweep{
			Losses:     []float64{a.loss},
			Churns:     []float64{a.churn},
			Crashes:    []float64{a.crash},
			Partitions: []time.Duration{pf},
			Policies:   []string{a.policy},
		}
		if a.tree != "" {
			shape, err := parseTreeShape(a.tree)
			if err != nil {
				return sw, err
			}
			sw.Trees = []repro.TreeShape{shape}
		} else {
			sizes, err := parseSizes(a.regionsCSV)
			if err != nil {
				return sw, err
			}
			sw.Regions = [][]int{sizes}
		}
	}
	// Byte axes: explicit -sweep-* lists win; otherwise a scalar -payload
	// or -budget pins its axis to that one value, so `-sweep-payloads
	// 512,2048 -budget 4096` reads as a payload axis × one fixed budget.
	if a.swPayloads != "" {
		v, err := parseInts(a.swPayloads)
		if err != nil {
			return sw, err
		}
		sw.PayloadSizes = v
	} else if a.payload > 0 {
		sw.PayloadSizes = []int{a.payload}
	}
	if a.swBudgets != "" {
		v, err := parseInts(a.swBudgets)
		if err != nil {
			return sw, err
		}
		sw.Budgets = v
	} else if a.budget > 0 {
		sw.Budgets = []int{a.budget}
	}
	if a.payloadModel != "" && a.payloadModel != "fixed" {
		sw.PayloadModel = a.payloadModel
	}
	// Protocol axis: an explicit -sweep-protocols list wins; otherwise an
	// explicit scalar -protocol pins the axis to that one protocol (same
	// rule the byte axes follow — and "-sweep -protocol rrmp" genuinely
	// excludes the rmtp family, not just when the value is non-default).
	if a.swProtocols != "" {
		sw.Protocols = nil
		for _, p := range strings.Split(a.swProtocols, ",") {
			sw.Protocols = append(sw.Protocols, strings.TrimSpace(p))
		}
	} else if a.protocolSet || (a.protocol != "" && a.protocol != "rrmp") {
		sw.Protocols = []string{a.protocol}
	}
	// Validate here, like the other axes: an empty token (a trailing comma)
	// would otherwise normalize to a second identical rrmp family instead
	// of erroring.
	for _, p := range sw.Protocols {
		if p != "rrmp" && p != "rmtp" {
			return sw, fmt.Errorf("unknown protocol %q (want rrmp or rmtp)", p)
		}
	}
	sw.Star = a.star
	sw.LossMode = a.lossMode
	sw.Burst = a.burst
	sw.Shards = a.shards
	sw.FixedHold = a.hold
	sw.C = a.c
	sw.Lambda = a.lambda
	sw.RepairBackoff = a.backoff
	sw.CrashRecover = a.crashRecover
	sw.PartitionAt = a.partitionAt
	sw.Msgs = a.msgs
	sw.Gap = a.gap
	sw.Horizon = a.horizon
	if a.workload != "" {
		spec, err := parseWorkloadSpec(a.workload)
		if err != nil {
			return sw, err
		}
		sw.Workloads = []*repro.WorkloadSpec{spec}
	}
	return sw, nil
}

// runSweep runs either the scenario matrix (-sweep) or a single-cell sweep
// (-trials > 1 without -sweep) and reports per-cell aggregates.
func runSweep(a sweepArgs) error {
	sw, err := buildSweep(a)
	if err != nil {
		return err
	}

	// The default -sweep shape is the standing matrix plus the workload
	// and adaptive-policy families, run through one pool into one report;
	// each family's cells append after all earlier cells, so the committed
	// record grows without a single pre-existing cell moving or re-byting.
	sweeps := []repro.Sweep{sw}
	if a.workloadFamily {
		wf := repro.WorkloadSweep()
		wf.Shards = a.shards
		af := repro.AdaptiveSweep()
		af.Shards = a.shards
		sweeps = append(sweeps, wf, af)
	}
	rep, err := repro.RunSweeps(repro.SweepOptions{
		Trials:   a.trials,
		Parallel: a.parallel,
		BaseSeed: a.seed,
	}, sweeps...)
	if err != nil {
		return err
	}

	if err := emitReport(a, rep, len(rep.Cells), rep.Trials, func() { printReport(rep) }); err != nil {
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
func printFitness(w io.Writer, rep repro.SweepReport, spec string) error {
	if spec == "default" {
		spec = ""
	}
	weights, err := repro.ParseFitnessWeights(spec)
	if err != nil {
		return err
	}
	rows := repro.SweepFitness(rep, weights)
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
// else through table — and writes the same JSON bytes to -out.
func emitReport(a sweepArgs, rep any, cells, trials int, table func()) error {
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
		table()
	}
	if a.outPath != "" {
		if err := os.WriteFile(a.outPath, blob, 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d cells × %d trials)\n", a.outPath, cells, trials)
	}
	return nil
}

// runScale runs the members×depth scale matrix, timing every cell, and
// writes the rrmp-scale/v1 report (BENCH_scale.json by default — the
// committed perf-trajectory record every PR regenerates).
func runScale(a sweepArgs) error {
	sw := repro.ScaleSweep()
	sw.Shards = a.shards
	// The default grid appends the XL rows (10k/100k members) and the 1M
	// hash-burst row after the standing matrix; -sweep-trees replaces the
	// whole grid instead.
	var sweeps []repro.Sweep
	if a.swTrees != "" {
		trees, err := parseTreeShapes(a.swTrees)
		if err != nil {
			return err
		}
		sw.Trees = trees
		sweeps = []repro.Sweep{sw}
	} else {
		xl := repro.ScaleSweepXL()
		xl.Shards = a.shards
		m1 := repro.ScaleSweep1M()
		m1.Shards = a.shards
		sweeps = []repro.Sweep{sw, xl, m1}
	}
	rep, err := repro.RunScale(repro.SweepOptions{
		Trials:   a.trials,
		Parallel: a.parallel,
		BaseSeed: a.seed,
	}, sweeps...)
	if err != nil {
		return err
	}

	return emitReport(a, rep, len(rep.Cells), rep.Trials, func() { printScaleReport(rep) })
}

// printScaleReport prints the scale table: per-cell delivery, recovery and
// the machine cost columns the record tracks.
func printScaleReport(rep repro.ScaleReport) {
	fmt.Printf("scale: %d cells × %d trials (base seed %d)\n", len(rep.Cells), rep.Trials, rep.BaseSeed)
	fmt.Printf("note: %s\n\n", rep.Note)
	fmt.Printf("%-58s %8s %8s %6s %12s %14s %12s %12s\n",
		"cell", "members", "regions", "depth", "delivery", "recovery(ms)", "wall(ms)", "events/s")
	for _, cell := range rep.Cells {
		fmt.Printf("%-58s %8d %8d %6d %12s %14s %12.0f %12.2g\n",
			cell.Name, cell.Members, cell.Regions, cell.Depth,
			meanCI(cell.Aggregate, runner.MKDeliveryRatio, "%.3f"),
			meanCI(cell.Aggregate, runner.MKMeanRecoveryMs, "%.1f"),
			cell.WallMsPerTrial, cell.EventsPerSec)
	}
}

// printReport prints the human-readable sweep table: headline metrics as
// mean ± 95% CI per cell.
func printReport(rep repro.SweepReport) {
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
	byteCols := func(cell repro.SweepCell) string {
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
func meanCI(agg repro.TrialAggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb+"±"+verb, m.Mean, m.CI95)
}

// meanOnly formats a metric's mean ("-" when absent).
func meanOnly(agg repro.TrialAggregate, name, verb string) string {
	m, ok := agg.Metric(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(verb, m.Mean)
}

// parseWorkloadSpec parses the -workload flag: one of the standing
// presets, or a comma-separated key=val spec validated as a whole.
func parseWorkloadSpec(s string) (*repro.WorkloadSpec, error) {
	switch s {
	case "mc":
		return repro.MultiClientWorkload(), nil
	case "bursty":
		return repro.BurstyWorkload(), nil
	case "vod":
		return repro.VoDPrefixPush(), nil
	}
	spec := &repro.WorkloadSpec{}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("-workload: %q is not key=val (or a preset: mc|bursty|vod)", field)
		}
		var err error
		switch k {
		//lint:allow metrickey -- workload spec field name, coincides with the metric key
		case "clients":
			spec.Clients, err = strconv.Atoi(v)
		case "msgs":
			spec.Msgs, err = strconv.Atoi(v)
		case "arrival":
			spec.Arrival = v
		case "gap":
			spec.Gap, err = time.ParseDuration(v)
		case "zipf":
			spec.ZipfS, err = strconv.ParseFloat(v, 64)
		case "burst-len":
			spec.BurstLen, err = strconv.Atoi(v)
		case "burst-gap":
			spec.BurstGap, err = time.ParseDuration(v)
		case "window":
			// from-to:factor, e.g. 0s-1s:4 (repeatable).
			var win repro.WorkloadWindow
			span, factor, ok := strings.Cut(v, ":")
			from, to, ok2 := strings.Cut(span, "-")
			if !ok || !ok2 {
				return nil, fmt.Errorf("-workload: window %q: want from-to:factor", v)
			}
			if win.From, err = time.ParseDuration(from); err == nil {
				if win.To, err = time.ParseDuration(to); err == nil {
					win.Factor, err = strconv.ParseFloat(factor, 64)
				}
			}
			spec.Windows = append(spec.Windows, win)
		case "size-model":
			spec.SizeModel = v
		case "size-mean":
			spec.SizeMean, err = strconv.Atoi(v)
		case "late-frac":
			spec.LateJoinFrac, err = strconv.ParseFloat(v, 64)
		case "late-at":
			spec.LateJoinAt, err = time.ParseDuration(v)
		case "late-spread":
			spec.LateJoinSpread, err = time.ParseDuration(v)
		default:
			return nil, fmt.Errorf("-workload: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("-workload: %s=%q: %v", k, v, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("-workload: %w", err)
	}
	return spec, nil
}

// runSingle runs the one cell the flags describe once, seeded with -seed
// itself, through the kernel every sweep cell runs (the cell -trials N
// aggregates, under the protocol -protocol names), and prints the cell's
// metrics sorted by key. Only a single run can be traced (-trace,
// -trace-out), record its publish timeline (-trace-record) or replay one
// (-trace-replay).
func runSingle(w io.Writer, a sweepArgs) error {
	sw, err := buildSweep(a)
	if err != nil {
		return err
	}
	cells := sw.Expand()
	if len(cells) != 1 {
		return fmt.Errorf("single-trial mode runs one cell, but the flags describe %d (add -sweep or -trials)", len(cells))
	}
	sc := cells[0]

	// nil = the kernel materializes the cell's own timeline; a recording
	// run materializes it here instead, so the file holds what ran.
	var timeline repro.WorkloadTimeline
	switch {
	case a.traceReplay != "":
		timeline, err = readTimeline(a.traceReplay)
	case a.traceRecord != "":
		timeline, err = repro.ScenarioTimeline(sc, a.seed)
	}
	if err != nil {
		return err
	}

	var sinks []io.Writer
	if a.doTrace {
		sinks = append(sinks, os.Stderr)
	}
	var traceFile *os.File
	if a.traceOut != "" {
		if traceFile, err = os.Create(a.traceOut); err != nil {
			return fmt.Errorf("opening trace output: %w", err)
		}
		defer traceFile.Close() // error paths; success checks Close below
		sinks = append(sinks, traceFile)
	}
	var tracer trace.Tracer
	if len(sinks) > 0 {
		tracer = &trace.Writer{W: io.MultiWriter(sinks...)}
	}
	// -shards never changes the metrics, but say when it cannot apply
	// instead of letting the flag look like a no-op.
	if a.shards > 1 {
		if tracer != nil {
			fmt.Fprintf(os.Stderr, "rrmp-sim: a traced run is serial, so the trace is a pure function of the seed; -shards %d ignored\n", a.shards)
		} else {
			// A malformed loss spec is the run's error to report, below.
			loss, _ := runner.ScenarioLoss(sc, a.seed, 0)
			if reason := netsim.ShardSafe(loss); reason != nil {
				fmt.Fprintf(os.Stderr, "rrmp-sim: -shards %d ignored: %v; use -loss-mode hash for shard-safe loss\n", a.shards, reason)
			}
		}
	}

	m, err := runner.RunScenarioWith(sc, a.seed, timeline, tracer)
	if err != nil {
		return err
	}
	// Close the trace file explicitly so a failed flush (full disk, ...)
	// surfaces as an error instead of an exit-0 truncated trace.
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
func readTimeline(path string) (repro.WorkloadTimeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	tl, err := repro.ReplayTrace(f)
	if err != nil {
		return nil, fmt.Errorf("replaying %s: %w", path, err)
	}
	return tl, nil
}

// writeTimeline records a publish timeline as rrmp-trace/v1.
func writeTimeline(path string, tl repro.WorkloadTimeline) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace: %w", err)
	}
	if err := repro.RecordTrace(f, tl); err != nil {
		f.Close()
		return fmt.Errorf("recording trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "rrmp-sim: wrote %s (%d events, %d clients)\n", path, len(tl), tl.Clients())
	return nil
}
