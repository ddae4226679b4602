package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
)

// warmStride picks sweep600's warm-up sample: every warmStride-th cell,
// which reaches every family of the matrix (both kernels, crash and
// partition timelines, byte-axis and workload cells).
const warmStride = 10

// expandSweeps concatenates the sweeps' cells in report order.
func expandSweeps(sweeps []exp.Sweep) []exp.Scenario {
	var cells []exp.Scenario
	for _, sw := range sweeps {
		cells = append(cells, sw.Expand()...)
	}
	return cells
}

// runSweepWorkload is sweep600: what a user runs to regenerate
// BENCH_sweep.json — thousands of tiny heterogeneous trials through the
// exp pool, then the report encoding.
func runSweepWorkload(cfg runConfig) (workloadResult, error) {
	started := time.Now()
	sweeps := sweep600Sweeps(cfg.smoke)
	cells := expandSweeps(sweeps)
	trials := scaled(sweep600TrialsAt15, cfg.seconds)
	builds := sweep600Builds
	if cfg.smoke {
		trials, builds = 2, 1
	}
	res := workloadResult{
		Name: wlSweep600, Trials: trials, Attempted: len(cells) * trials,
		Metrics: map[string]float64{},
	}

	// Warm-up and twin check on a stride sample: the same cells with the
	// same seed, twice, must produce the same metric maps.
	seed0 := exp.TrialSeed(cfg.seed, 0)
	var twin [2]string
	for pass := range twin {
		var maps []map[string]float64
		for i := 0; i < len(cells); i += warmStride {
			m, err := runner.RunScenario(cells[i], seed0)
			if err != nil {
				return res, fmt.Errorf("sweep600: warm-up cell %q: %w", cells[i].Name(), err)
			}
			maps = append(maps, m)
		}
		var err error
		if twin[pass], err = digestMaps(maps); err != nil {
			return res, err
		}
		runtime.GC()
	}
	if twin[0] != twin[1] {
		res.Failed++
		res.violate("the warm-up sample and its twin hash differently: the run is not a pure function of its seed")
	}

	t0 := time.Now()
	rep, err := runner.RunSweeps(exp.Options{Trials: trials, Parallel: cfg.w, BaseSeed: cfg.seed}, sweeps...)
	var encoded []byte
	if err == nil {
		encoded, err = json.Marshal(rep)
	}
	runS := time.Since(t0).Seconds()
	res.Metrics[mPeakRSSMB] = peakRSSMB()
	res.TrialWallsS = []float64{runS}
	res.TrialWall = summarize(res.TrialWallsS)
	if err != nil {
		// The pool reports only its first failing trial; nothing of the
		// round can be trusted.
		res.Failed = res.Attempted
		res.violate("RunSweeps: %v", err)
	}
	res.SimDigest = digestBytes(encoded)

	var deliveries, ratioSum, bufSum, recSum float64
	var ratioN, recN int
	for _, c := range rep.Cells {
		mean := func(key string) (float64, bool) {
			s, ok := c.Aggregate.Metric(key)
			return s.Mean, ok
		}
		ratio, _ := mean(runner.MKDeliveryRatio)
		pubs, ok := mean(runner.MKPublishes)
		deliveries += ratio * float64(members(c.Scenario)) * publishes(c.Scenario, pubs, ok) * float64(trials)
		if v, ok := mean(runner.MKSurvivorDeliveryRatio); ok {
			ratioSum += v
			ratioN++
		}
		if v, ok := mean(runner.MKMeanRecoveryMs); ok {
			recSum += v
			recN++
		}
		buf, _ := mean(runner.MKBufferIntegralMsgSec)
		bufSum += buf
		if c.Aggregate.Trials != trials {
			res.Failed++
			res.violate("cell %q aggregated %d trials, want %d", c.Name, c.Aggregate.Trials, trials)
		}
	}
	if n := len(rep.Cells); n > 0 {
		res.Metrics[mBufferMsgS] = bufSum / float64(n)
	}
	if ratioN > 0 {
		res.Metrics[mDeliveryRatio] = ratioSum / float64(ratioN)
	}
	if recN > 0 {
		res.Metrics[mRecoveryMs] = recSum / float64(recN)
	}
	if !cfg.smoke && err == nil {
		for _, v := range rosterViolations(rep) {
			res.Failed++
			res.violate("%s", v)
		}
	}
	runtime.GC()

	setup, err := measureSetup(cells, builds, seed0)
	if err != nil {
		return res, err
	}
	res.Metrics[mSetupS] = setup / float64(builds)
	res.finish(deliveries, runS, started)
	return res, nil
}

// rosterFile is the committed sweep record whose cell roster sweep600 must
// reproduce, relative to the repository root. It is only ever read.
const rosterFile = "BENCH_sweep.json"

// rosterViolations checks the report against BENCH_sweep.json's roster:
// exactly 600 cells with the committed names in the committed order.
func rosterViolations(rep exp.Report) []string {
	var v []string
	if len(rep.Cells) != 600 {
		v = append(v, fmt.Sprintf("report has %d cells, want 600", len(rep.Cells)))
	}
	data, err := os.ReadFile(rosterFile)
	if err != nil {
		return append(v, fmt.Sprintf("roster: %v (run from the repository root)", err))
	}
	var roster struct {
		Cells []struct {
			Name string `json:"name"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &roster); err != nil {
		return append(v, fmt.Sprintf("roster: %s: %v", rosterFile, err))
	}
	if len(roster.Cells) != len(rep.Cells) {
		return append(v, fmt.Sprintf("roster: %s lists %d cells, report has %d", rosterFile, len(roster.Cells), len(rep.Cells)))
	}
	for i, c := range rep.Cells {
		if c.Name != roster.Cells[i].Name {
			v = append(v, fmt.Sprintf("roster: cell %d is %q, %s has %q", i, c.Name, rosterFile, roster.Cells[i].Name))
			break
		}
	}
	return v
}
