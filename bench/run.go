package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
)

// runConfig is what one workload process is told.
type runConfig struct {
	seed    uint64
	seconds int
	smoke   bool
	w       int
}

// workloadResult is one workload's untraced record.
type workloadResult struct {
	Name string `json:"name"`
	// Trials is the measured trial count (trials per cell for sweep600).
	Trials int `json:"trials"`
	// Attempted and Failed count trials (sweep600: cell-trials) run and
	// those that returned an error or violated the workload's invariant.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// WallS is the whole workload process: warm-up, trials, collections
	// and setup blocks.
	WallS float64 `json:"wall_s"`
	// Metrics holds the end-to-end metrics by catalogue name; Omitted
	// lists the declared gaps.
	Metrics map[string]float64 `json:"metrics"`
	Omitted []string           `json:"omitted,omitempty"`
	// TrialWall describes the per-trial wall times (sweep600: its one
	// RunSweeps call).
	TrialWall timing `json:"trial_wall"`
	// TrialWallsS lists the timed spans in trial order.
	TrialWallsS []float64 `json:"trial_walls_s"`
	// SimDigest identifies the simulated outcome: a simulator-speed change
	// must leave it bit-identical.
	SimDigest  string   `json:"sim_digest"`
	Violations []string `json:"violations,omitempty"`
}

// maxViolations bounds the violation list of a badly broken run.
const maxViolations = 20

func (r *workloadResult) violate(format string, args ...any) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// finish derives the metrics every workload computes the same way.
func (r *workloadResult) finish(deliveries, runS float64, started time.Time) {
	r.Metrics[mRunS] = runS
	if runS > 0 {
		r.Metrics[mDeliveriesPerS] = deliveries / runS
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Metrics[mFailedFrac] = float64(r.Failed) / float64(r.Attempted)
	for name := range omittedE2E[r.Name] {
		delete(r.Metrics, name)
		r.Omitted = append(r.Omitted, name)
	}
	r.WallS = time.Since(started).Seconds()
}

// runWorkload runs one workload in this process, closed loop: one untimed
// warm-up trial, then the fixed trial count with a collection after every
// trial outside the timed spans, then the setup blocks.
func runWorkload(name string, cfg runConfig) (workloadResult, error) {
	if name == wlSweep600 {
		return runSweepWorkload(cfg)
	}
	def, ok := scenarioWorkload(name)
	if !ok {
		return workloadResult{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	started := time.Now()
	sc := def.scenario(cfg.w, cfg.smoke)
	n := def.trials(cfg.seconds, cfg.smoke)
	res := workloadResult{Name: name, Trials: n, Attempted: n, Metrics: map[string]float64{}}

	// The warm-up is trial 0's twin: same scenario, same seed. It fills
	// caches and sizes the heap, and its digest must match trial 0's.
	warm, err := runner.RunScenario(sc, exp.TrialSeed(cfg.seed, 0))
	if err != nil {
		return res, fmt.Errorf("%s: warm-up trial: %w", name, err)
	}
	runtime.GC()

	var (
		walls            []float64
		maps             []map[string]float64
		trial0           map[string]float64
		deliveries, runS float64
		ratioSum, bufSum float64
		recSum           float64
		recN             int
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		m, err := runner.RunScenario(sc, exp.TrialSeed(cfg.seed, i))
		wall := time.Since(t0).Seconds()
		runtime.GC()
		walls = append(walls, wall)
		runS += wall
		if err != nil {
			res.Failed++
			res.violate("trial %d: %v", i, err)
			continue
		}
		maps = append(maps, m)
		if i == 0 {
			trial0 = m
		}
		if !cfg.smoke {
			if v := def.gate(m); len(v) > 0 {
				res.Failed++
				res.violate("trial %d: %s", i, strings.Join(v, "; "))
			}
		}
		pubs, ok := m[runner.MKPublishes]
		deliveries += m[runner.MKDeliveryRatio] * float64(members(sc)) * publishes(sc, pubs, ok)
		ratioSum += m[runner.MKSurvivorDeliveryRatio]
		bufSum += m[runner.MKBufferIntegralMsgSec]
		if v, ok := m[runner.MKMeanRecoveryMs]; ok {
			recSum += v
			recN++
		}
	}
	res.Metrics[mPeakRSSMB] = peakRSSMB()
	res.TrialWall, res.TrialWallsS = summarize(walls), walls

	if len(maps) > 0 {
		res.Metrics[mDeliveryRatio] = ratioSum / float64(len(maps))
		res.Metrics[mBufferMsgS] = bufSum / float64(len(maps))
		if recN > 0 {
			res.Metrics[mRecoveryMs] = recSum / float64(recN)
		}
		if res.SimDigest, err = digestMaps(maps); err != nil {
			return res, err
		}
	}
	if trial0 != nil {
		a, errA := digestMaps([]map[string]float64{warm})
		b, errB := digestMaps([]map[string]float64{trial0})
		if errA != nil || errB != nil || a != b {
			res.Failed++
			res.violate("trial 0 and its warm-up twin hash differently: the run is not a pure function of its seed")
		}
	}

	setup, err := measureSetup([]exp.Scenario{sc}, def.setupBuilds(cfg.smoke), exp.TrialSeed(cfg.seed, 0))
	if err != nil {
		return res, err
	}
	res.Metrics[mSetupS] = setup / float64(def.setupBuilds(cfg.smoke))
	res.finish(deliveries, runS, started)
	return res, nil
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
// It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(s.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
