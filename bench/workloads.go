package main

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/workload"
)

// workloadDef is one single-scenario workload (sweep600 is its own shape,
// see sweep.go). Sizes are fixed counts, never durations, so the simulated
// statistics of a (seed, seconds) pair repeat exactly.
type workloadDef struct {
	name string
	// scenario returns the measured scenario at engine width w.
	scenario func(w int, smoke bool) exp.Scenario
	// trialsAt15 is the trial count at the default -seconds 15; -seconds
	// scales it linearly. The counts are not proportional to trial length:
	// a workload whose cost depends on its inputs (pressure300) needs more
	// trials for a steady mean than one whose trials are all alike.
	trialsAt15 int
	// traceTrialsAt15 is the open-trial count of `bench trace`.
	traceTrialsAt15 int
	// builds is B, the deployments built back-to-back in one setup_s
	// block, fixed so a block lasts >= 0.5 s on the seed.
	builds int
	// gate returns the workload's invariant violations for one trial.
	gate func(m map[string]float64) []string
}

// scaled converts a count sized for 15 s to the requested run length.
func scaled(at15, seconds int) int {
	if n := at15 * seconds / defaultSeconds; n > 1 {
		return n
	}
	return 1
}

func (d workloadDef) trials(seconds int, smoke bool) int {
	if smoke {
		return 2
	}
	return scaled(d.trialsAt15, seconds)
}

func (d workloadDef) traceTrials(seconds int, smoke bool) int {
	if smoke {
		return 1
	}
	return scaled(d.traceTrialsAt15, seconds)
}

func (d workloadDef) setupBuilds(smoke bool) int {
	if smoke {
		return 1
	}
	return d.builds
}

// scenarioWorkloads are the three single-scenario workloads. README.md
// records the seed profile that justifies each (which layer dominates).
var scenarioWorkloads = []workloadDef{
	{
		// Lossless fast path: multicast fan-out -> deliver -> Buffer.Store
		// -> idle timer -> two-phase election. No loss model, recovery,
		// search, sharding or faults.
		name: wlStream10k,
		scenario: func(_ int, smoke bool) exp.Scenario {
			sc := exp.Scenario{
				Tree:   &exp.TreeShape{Branch: 4, Levels: 4, Members: 10000},
				Policy: "two-phase",
				Msgs:   50, Gap: 20 * time.Millisecond, Horizon: 3 * time.Second,
			}
			if smoke {
				sc.Tree.Members, sc.Msgs, sc.Horizon = 200, 10, time.Second
			}
			return sc
		},
		trialsAt15:      8,
		traceTrialsAt15: 2,
		builds:          32,
		gate: func(m map[string]float64) []string {
			var v []string
			if m[runner.MKDeliveryRatio] != 1 {
				v = append(v, fmt.Sprintf("delivery_ratio %v != 1", m[runner.MKDeliveryRatio]))
			}
			if m[runner.MKUnrecoverable] != 0 {
				v = append(v, fmt.Sprintf("unrecoverable %v != 0", m[runner.MKUnrecoverable]))
			}
			if m[runner.MKDuplicates] != 0 {
				v = append(v, fmt.Sprintf("duplicates %v != 0", m[runner.MKDuplicates]))
			}
			return v
		},
	},
	{
		// The same core/rrmp/netsim layers used the other way: unicast
		// request/repair/search traffic on a cache-resident group,
		// budgeted stores under pressure, the widened core.Policy
		// contract, four sources.
		name: wlPressure300,
		scenario: func(_ int, smoke bool) exp.Scenario {
			sc := exp.Scenario{
				Regions: []int{100, 100, 100},
				Loss:    0.2, LossMode: "hash",
				Policy:     "adaptive",
				ByteBudget: 16384,
				Horizon:    10 * time.Second,
				Workload: &workload.Spec{
					Clients: 4, Msgs: 240,
					Arrival: workload.ArrivalBurst, Gap: 200 * time.Millisecond,
					BurstLen: 8, BurstGap: 2 * time.Millisecond,
					SizeModel: workload.SizeLognormal, SizeMean: 1024,
				},
			}
			if smoke {
				sc.Regions, sc.Workload.Msgs, sc.Horizon = []int{10, 10, 10}, 48, 3*time.Second
			}
			return sc
		},
		trialsAt15:      48,
		traceTrialsAt15: 2,
		builds:          1000,
		gate: func(m map[string]float64) []string {
			var v []string
			if m[runner.MKSurvivorDeliveryRatio] < 0.995 {
				v = append(v, fmt.Sprintf("survivor_delivery_ratio %v < 0.995", m[runner.MKSurvivorDeliveryRatio]))
			}
			if m[runner.MKPeakBufferedBytes] > 16384 {
				v = append(v, fmt.Sprintf("peak_buffered_bytes %v > 16384", m[runner.MKPeakBufferedBytes]))
			}
			if m[runner.MKPressureEvictions] <= 0 {
				v = append(v, "pressure_evictions == 0")
			}
			return v
		},
	},
	{
		// ScaleSweepXL's 100k churn-0 cell: the only workload on
		// sim.Sharded, the only one whose working set exceeds cache and
		// whose construction is visible.
		name: wlScale100k,
		scenario: func(w int, smoke bool) exp.Scenario {
			sc := exp.Scenario{
				Tree: &exp.TreeShape{Branch: 8, Levels: 4, Members: 100000},
				Loss: 0.05, LossMode: "hash",
				Policy: "two-phase",
				Msgs:   10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
				Shards: w,
			}
			if smoke {
				sc.Tree.Members = 2000
			}
			return sc
		},
		trialsAt15:      3,
		traceTrialsAt15: 1,
		builds:          3,
		gate: func(m map[string]float64) []string {
			var v []string
			if m[runner.MKDeliveryRatio] < 0.999 {
				v = append(v, fmt.Sprintf("delivery_ratio %v < 0.999", m[runner.MKDeliveryRatio]))
			}
			// Not == 0: on the seed about one trial in four abandons one or
			// two of its million (member, message) pairs.
			if m[runner.MKUnrecoverable] > 10 {
				v = append(v, fmt.Sprintf("unrecoverable %v > 10", m[runner.MKUnrecoverable]))
			}
			return v
		},
	},
}

func scenarioWorkload(name string) (workloadDef, bool) {
	for _, d := range scenarioWorkloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// members is the group size of a scenario.
func members(sc exp.Scenario) int {
	if sc.Tree != nil {
		return sc.Tree.Members
	}
	n := 0
	for _, r := range sc.Regions {
		n += r
	}
	return n
}

// publishes is how many messages one trial published: the reported count
// for multi-client cells, the nominal Msgs otherwise.
func publishes(sc exp.Scenario, reported float64, ok bool) float64 {
	if sc.Workload != nil && ok {
		return reported
	}
	return float64(sc.Msgs)
}

// sweep600Sweeps is the matrix that regenerates BENCH_sweep.json: 576
// default cells, 18 workload cells, 6 adaptive cells.
func sweep600Sweeps(smoke bool) []exp.Sweep {
	sweeps := []exp.Sweep{exp.DefaultSweep(), exp.WorkloadSweep(), exp.AdaptiveSweep()}
	if smoke {
		for i := range sweeps {
			sweeps[i].Regions = [][]int{{8, 8}}
			sweeps[i].Losses = []float64{0.2}
			sweeps[i].Horizon = 2 * time.Second
		}
	}
	return sweeps
}

// sweep600TrialsAt15 is the trials-per-cell count of sweep600 at 15 s.
const sweep600TrialsAt15 = 1

// sweep600Builds is B for sweep600: passes over all 600 cells per block.
const sweep600Builds = 3
