// Command bench is the repository's benchmark: four workloads, eight
// end-to-end metrics, a per-layer ladder and a traced run. See README.md
// in this directory for the catalogue and the rules.
//
//	go run ./bench run     [-seed N] [-seconds S] [-out FILE]
//	go run ./bench trace   [-seed N] [-seconds S] [-workload NAME] [-out FILE] [-trace-out FILE]
//	go run ./bench compare [-allow-sim-change] BASE.json NEW.json
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//
// The last form is the driver contract of BENCHMARK.json: one workload in
// this process, one JSON result object as the last line of stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeconds is the run length BENCHMARK.json asks the driver for; the
// trial counts in workloads.go are stated for it and scale with -seconds.
const defaultSeconds = 15

// errRegression is returned by compare when a row is out of bound.
var errRegression = errors.New("regression")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; {
	case strings.HasPrefix(cmd, "-"):
		err = contractMain(os.Args[1:])
	case cmd == "run":
		err = runMain(args)
	case cmd == "trace":
		err = traceMain(args)
	case cmd == "compare":
		err = compareMain(args)
	case cmd == "child":
		err = childMain(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if !errors.Is(err, errRegression) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run     [-seed N] [-seconds S] [-smoke] [-out FILE]
  bench trace   [-seed N] [-seconds S] [-smoke] [-workload NAME] [-out FILE] [-trace-out FILE]
  bench compare [-allow-sim-change] BASE.json NEW.json
  bench compare [-allow-sim-change] -base A.json,B.json -new C.json,D.json
  bench --workload NAME --seed N --seconds S --trace 0|1`)
}

// envInfo records the host and run facts two records must share before
// `bench compare` will compare them.
type envInfo struct {
	NProc     int    `json:"nproc"`
	W         int    `json:"w"`
	GOGC      string `json:"gogc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Smoke     bool   `json:"smoke,omitempty"`
}

// recordFile is what `bench run` and `bench trace` write with -out.
type recordFile struct {
	Schema    string           `json:"schema"`
	Kind      string           `json:"kind"`
	Env       envInfo          `json:"env"`
	Workloads []workloadResult `json:"workloads,omitempty"`
	Traces    []traceResult    `json:"traces,omitempty"`
}

// width is W: the only engine and pool width the benchmark ever uses.
func width() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// guard applies the environment rules and pins GOMAXPROCS to W. A race
// build or a non-default GOGC would measure a different program.
func guard() (int, error) {
	if raceEnabled {
		return 0, errors.New("refusing to measure a -race build")
	}
	if g := os.Getenv("GOGC"); g != "" && g != "100" {
		return 0, fmt.Errorf("refusing to measure with GOGC=%s (unset it)", g)
	}
	w := width()
	runtime.GOMAXPROCS(w)
	return w, nil
}

func captureEnv(cfg runConfig) envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return envInfo{
		NProc: runtime.NumCPU(), W: cfg.w, GOGC: "100", GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
	}
}

// runFlags are the flags run, trace, child and the contract form share.
type runFlags struct {
	fs       *flag.FlagSet
	seed     *uint64
	seconds  *int
	smoke    *bool
	workload *string
}

func newRunFlags(name string) runFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return runFlags{
		fs:       fs,
		seed:     fs.Uint64("seed", 1, "base seed; trial i runs with exp.TrialSeed(seed, i)"),
		seconds:  fs.Int("seconds", defaultSeconds, "run length the fixed trial counts are scaled to"),
		smoke:    fs.Bool("smoke", false, "every workload at ~1/50 scale, correctness gates off"),
		workload: fs.String("workload", "", "run only this workload"),
	}
}

// parse parses args, applies the guard rails and returns the run's config.
func (f runFlags) parse(args []string) (runConfig, error) {
	if err := f.fs.Parse(args); err != nil {
		return runConfig{}, err
	}
	if *f.seconds < 1 || *f.seconds > 60 {
		return runConfig{}, fmt.Errorf("-seconds %d out of range [1, 60]", *f.seconds)
	}
	w, err := guard()
	if err != nil {
		return runConfig{}, err
	}
	return runConfig{seed: *f.seed, seconds: *f.seconds, smoke: *f.smoke, w: w}, nil
}

func (f runFlags) selected() ([]string, error) {
	if *f.workload == "" {
		return workloadNames, nil
	}
	for _, n := range workloadNames {
		if n == *f.workload {
			return []string{n}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", *f.workload, strings.Join(workloadNames, ", "))
}

// runMain is `bench run`: every workload, one fresh child process each
// (so peak_rss_mb is the workload's own), strictly one after the other.
func runMain(args []string) error {
	f := newRunFlags("run")
	out := f.fs.String("out", "", "write the record to this file")
	cfg, err := f.parse(args)
	if err != nil {
		return err
	}
	names, err := f.selected()
	if err != nil {
		return err
	}
	rec := recordFile{Schema: schema, Kind: "run", Env: captureEnv(cfg)}
	failed := false
	for _, name := range names {
		var res workloadResult
		if err := runChild("run", name, cfg, "", &res); err != nil {
			return err
		}
		printWorkload(res)
		failed = failed || res.Failed > 0
		rec.Workloads = append(rec.Workloads, res)
	}
	if err := writeRecord(*out, rec); err != nil {
		return err
	}
	if failed {
		return errors.New("a correctness gate was violated (see the violations above)")
	}
	return nil
}

// traceMain is `bench trace`: the per-layer run, again one child process
// per workload.
func traceMain(args []string) error {
	f := newRunFlags("trace")
	out := f.fs.String("out", "", "write the record to this file")
	traceOut := f.fs.String("trace-out", "", "write the recorded spans to FILE.<workload>.json")
	cfg, err := f.parse(args)
	if err != nil {
		return err
	}
	names, err := f.selected()
	if err != nil {
		return err
	}
	rec := recordFile{Schema: schema, Kind: "trace", Env: captureEnv(cfg)}
	for _, name := range names {
		spans := ""
		if *traceOut != "" {
			spans = *traceOut + "." + name + ".json"
		}
		var res traceResult
		if err := runChild("trace", name, cfg, spans, &res); err != nil {
			return err
		}
		printTrace(res)
		rec.Traces = append(rec.Traces, res)
	}
	return writeRecord(*out, rec)
}

// runChild re-executes this binary for one workload and decodes the JSON
// result it prints. The child inherits stderr for progress and errors.
func runChild(mode, name string, cfg runConfig, spans string, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"child", "-mode", mode, "-workload", name,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if spans != "" {
		args = append(args, "-trace-out", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s %s: %w", mode, name, err)
	}
	if err := json.Unmarshal(outBytes, into); err != nil {
		return fmt.Errorf("%s %s: decoding child result: %w", mode, name, err)
	}
	return nil
}

// childMain is the hidden per-workload process of run and trace.
func childMain(args []string) error {
	f := newRunFlags("child")
	mode := f.fs.String("mode", "run", "run or trace")
	traceOut := f.fs.String("trace-out", "", "span file")
	cfg, err := f.parse(args)
	if err != nil {
		return err
	}
	var result any
	if *mode == "trace" {
		result, err = traceWorkload(*f.workload, cfg, *traceOut)
	} else {
		result, err = runWorkload(*f.workload, cfg)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(result)
}

// contractMain is the BENCHMARK.json form: one workload in this (already
// fresh) process; every metric printed by name with its unit, then the
// result object on the last line.
func contractMain(args []string) error {
	f := newRunFlags("bench")
	traced := f.fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	cfg, err := f.parse(args)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	if *traced == 1 {
		res, err := traceWorkload(*f.workload, cfg, "")
		if err != nil {
			return err
		}
		printTrace(res)
		line.Correct, line.Attempted = true, res.Trials
		for _, m := range layerMetrics {
			line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
		}
	} else {
		res, err := runWorkload(*f.workload, cfg)
		if err != nil {
			return err
		}
		printWorkload(res)
		line.Correct, line.Attempted, line.Failed = res.Failed == 0, res.Attempted, res.Failed
		for _, name := range contractE2E {
			m, _ := e2eByName(name)
			line.Metrics[name] = value{res.Metrics[name], m.Unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

func writeRecord(path string, rec recordFile) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printWorkload(r workloadResult) {
	fmt.Printf("== %s: %d trials, %d attempted, %d failed, process wall %.2f s\n",
		r.Name, r.Trials, r.Attempted, r.Failed, r.WallS)
	for _, m := range e2eMetrics {
		switch v, ok := r.Metrics[m.Name]; {
		case ok:
			fmt.Printf("  %-18s %14.6g %s\n", m.Name, v, m.Unit)
		case omittedE2E[r.Name][m.Name]:
			fmt.Printf("  %-18s %14s (declared gap)\n", m.Name, "-")
		default:
			fmt.Printf("  %-18s %14s (no trial succeeded)\n", m.Name, "-")
		}
	}
	fmt.Printf("  trial wall: n=%d median %.4f s, %s %.4f s\n",
		r.TrialWall.Count, r.TrialWall.MedianS, r.TrialWall.Tail, r.TrialWall.TailS)
	fmt.Printf("  sim_digest %s\n", r.SimDigest)
	for _, v := range r.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

func printTrace(r traceResult) {
	fmt.Printf("== %s (traced): %d open trials, mirror %s, process wall %.2f s\n",
		r.Name, r.Trials, r.Mirror, r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range layerMetrics {
		units[m.Name] = m.Unit
	}
	for _, name := range names {
		fmt.Printf("  %-36s %14.6g %s\n", name, r.Metrics[name], units[name])
	}
}
