package repro

import (
	"io"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Sweep-runner identifiers, re-exported so facade users speak one
// vocabulary (see internal/exp for the machinery and field docs).
type (
	// Sweep declares a scenario matrix (regions × loss × churn × policy).
	Sweep = exp.Sweep
	// Scenario is one expanded sweep cell.
	Scenario = exp.Scenario
	// SweepOptions set trial count, worker-pool width, and the base seed.
	SweepOptions = exp.Options
	// SweepReport is a whole sweep's aggregated, JSON-stable output.
	SweepReport = exp.Report
	// SweepCell is one aggregated cell of a report.
	SweepCell = exp.Cell
	// MetricSummary is one metric's mean / stddev / 95% CI across trials.
	MetricSummary = exp.MetricSummary
	// TrialAggregate is a multi-trial run's full metric reduction.
	TrialAggregate = exp.Aggregate
	// FitnessWeights weight the sweep fitness score's four objectives.
	FitnessWeights = exp.FitnessWeights
	// FitnessRow is one candidate's fitness score plus its raw objectives.
	FitnessRow = exp.FitnessRow
	// TreeShape is a balanced multi-level hierarchy cell for sweeps
	// (branch, levels, total members).
	TreeShape = exp.TreeShape
	// ScaleReport is a scale run's output (BENCH_scale.json's layout).
	ScaleReport = runner.ScaleReport
	// ScaleCell is one aggregated scale cell with wall-clock annotations.
	ScaleCell = runner.ScaleCell
	// WorkloadSpec declares a multi-client publish workload (arrival
	// process, Zipf volume skew, payload sizes, VoD late joiners); set it
	// on Scenario.Workload or the Sweep.Workloads axis.
	WorkloadSpec = workload.Spec
	// WorkloadWindow is one rate-modulation window of a WorkloadSpec.
	WorkloadWindow = workload.Window
	// WorkloadTimeline is a materialized publish timeline — the merged
	// (at, client, bytes) event sequence both protocol kernels drive.
	WorkloadTimeline = workload.Timeline
	// WorkloadEvent is one publish instant of a WorkloadTimeline.
	WorkloadEvent = workload.Event
)

// DefaultSweep returns the standing benchmark matrix (the one
// BENCH_sweep.json tracks across PRs).
func DefaultSweep() Sweep { return exp.DefaultSweep() }

// ScaleSweep returns the standing scale matrix: balanced trees over a
// members × depth grid (the one BENCH_scale.json tracks across PRs).
func ScaleSweep() Sweep { return exp.ScaleSweep() }

// ScaleSweepXL returns the extra-large scale rows (10k and 100k members)
// appended after ScaleSweep in BENCH_scale.json; they use hash-mode loss so
// the region-sharded engine can run them parallel.
func ScaleSweepXL() Sweep { return exp.ScaleSweepXL() }

// ScaleSweep1M returns the 1M-member hash-burst row appended after the XL
// rows in BENCH_scale.json — the final rung of the scale ladder, run as a
// separate sweep so the Burst axis never re-bytes the committed XL cells.
func ScaleSweep1M() Sweep { return exp.ScaleSweep1M() }

// RunScale runs the given sweeps' cells in order, timing each cell, and
// returns the scale report (deterministic aggregates plus
// machine-dependent wall-clock and events/sec annotations).
func RunScale(o SweepOptions, sweeps ...Sweep) (ScaleReport, error) {
	return runner.RunScale(o, sweeps...)
}

// WorkloadSweep returns the standing multi-client workload matrix (three
// workload shapes × loss × policy × protocol, hash-mode loss) appended
// after DefaultSweep in BENCH_sweep.json.
func WorkloadSweep() Sweep { return exp.WorkloadSweep() }

// AdaptiveSweep returns the demand-aware policy family (bursty workload ×
// loss × {two-phase, fixed, adaptive}, hash-mode loss) appended after the
// workload family in BENCH_sweep.json.
func AdaptiveSweep() Sweep { return exp.AdaptiveSweep() }

// MultiClientWorkload returns the workload family's many-publishers cell:
// 8 Poisson publishers, Zipf-1.1 volume skew, lognormal payloads.
func MultiClientWorkload() *WorkloadSpec { return exp.MultiClientWorkload() }

// BurstyWorkload returns the workload family's diurnal-burst cell: 4
// burst publishers under hot/cool rate windows.
func BurstyWorkload() *WorkloadSpec { return exp.BurstyWorkload() }

// VoDPrefixPush returns the workload family's video-on-demand cell: one
// sender pushes a 1 KiB prefix and a quarter of the members join late,
// needing the whole prefix recovered.
func VoDPrefixPush() *WorkloadSpec { return exp.VoDPrefixPush() }

// RunSweep expands the sweep and runs every (cell, trial) pair across a
// bounded worker pool. Aggregates are byte-identical at any Parallel
// setting: trials parallelize perfectly because each one is a
// self-contained deterministic simulation.
func RunSweep(o SweepOptions, sw Sweep) (SweepReport, error) {
	return runner.RunSweep(o, sw)
}

// RunSweeps expands every sweep in order and runs the concatenated cells
// through one worker pool and into one report — how BENCH_sweep.json
// appends the workload family after the standing matrix without re-byting
// a single committed cell.
func RunSweeps(o SweepOptions, sweeps ...Sweep) (SweepReport, error) {
	return runner.RunSweeps(o, sweeps...)
}

// DefaultFitnessWeights returns the standing objective weighting the A8
// fitness table and rrmp-sim -fitness-weights default to.
func DefaultFitnessWeights() FitnessWeights { return exp.DefaultFitnessWeights() }

// ParseFitnessWeights parses a "delivery=1,bytesec=0.25,..." weight spec;
// omitted keys keep their defaults, the empty string is all defaults.
func ParseFitnessWeights(s string) (FitnessWeights, error) { return exp.ParseFitnessWeights(s) }

// SweepFitness scores a sweep report's cells against each other under the
// given weights and returns the ranking, best first. Costs normalize over
// the whole report — filter rep.Cells first to rank within one family.
func SweepFitness(rep SweepReport, w FitnessWeights) []FitnessRow {
	return runner.SweepFitness(rep, w)
}

// RunScenario runs a single scenario cell once with the given seed and
// returns its raw metrics (the kernel RunSweep aggregates).
func RunScenario(sc Scenario, seed uint64) (map[string]float64, error) {
	return runner.RunScenario(sc, seed)
}

// RunScenarioTimeline is RunScenario driven by an externally supplied
// publish timeline — the trace-replay path. Replaying a recorded timeline
// reproduces the recording run's metrics byte for byte.
func RunScenarioTimeline(sc Scenario, seed uint64, tl WorkloadTimeline) (map[string]float64, error) {
	return runner.RunScenarioWith(sc, seed, tl, nil)
}

// ScenarioTimeline materializes the scenario's merged publish timeline —
// what RunScenario would generate and what RecordTrace persists.
func ScenarioTimeline(sc Scenario, seed uint64) (WorkloadTimeline, error) {
	tl, _, err := runner.TimelineFor(sc, seed)
	return tl, err
}

// RecordTrace writes a timeline to w in the canonical rrmp-trace/v1 text
// format.
func RecordTrace(w io.Writer, tl WorkloadTimeline) error { return workload.Record(w, tl) }

// ReplayTrace parses a canonical rrmp-trace/v1 stream back into a
// timeline, rejecting malformed or non-canonical input.
func ReplayTrace(r io.Reader) (WorkloadTimeline, error) { return workload.Replay(r) }
