package runner

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/topology"
)

// ScaleSchema identifies the scale report's JSON layout.
const ScaleSchema = "rrmp-scale/v1"

// ScaleCell is one aggregated cell of the scale matrix, annotated with the
// topology's size/shape and the cost of simulating it. Aggregate is fully
// deterministic (a pure function of scenario and seeds, byte-identical at
// any parallelism); WallMsPerTrial and EventsPerSec measure this machine
// and are excluded from determinism contracts.
type ScaleCell struct {
	Name     string       `json:"name"`
	Scenario exp.Scenario `json:"scenario"`
	// Members, Regions and Depth describe the topology (Depth is parent
	// hops from the deepest region to the root).
	Members int `json:"members"`
	Regions int `json:"regions"`
	Depth   int `json:"depth"`
	// Aggregate carries the usual per-metric trial statistics, including
	// the "events" metric (simulator events per trial).
	Aggregate exp.Aggregate `json:"aggregate"`
	// WallMsPerTrial is total cell wall-clock divided by trial count;
	// EventsPerSec is total simulator events divided by total wall-clock.
	// Machine-dependent: the perf trajectory, not a golden value.
	WallMsPerTrial float64 `json:"wall_ms_per_trial"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// ScaleReport is a whole scale run. The cells' Aggregate sections follow
// the sweep determinism contract; the wall-clock fields deliberately do
// not (they are what the record exists to track).
type ScaleReport struct {
	Schema   string      `json:"schema"`
	BaseSeed uint64      `json:"base_seed"`
	Trials   int         `json:"trials"`
	Note     string      `json:"note"`
	Cells    []ScaleCell `json:"cells"`
}

// scaleNote is embedded in every report so a reader of BENCH_scale.json
// knows which fields are comparable across machines.
const scaleNote = "aggregate sections are deterministic (byte-identical at any -parallel); wall_ms_per_trial and events_per_sec are machine-dependent"

// RunScale expands every sweep in order and runs the concatenation cell by
// cell: each cell's trials go through the exp worker pool (so wide
// -parallel still helps), and the wall clock is taken around the whole
// cell. Cells run sequentially to keep their wall-clock numbers honest —
// parallel cells would contend for cores and overstate per-cell cost.
// Passing several sweeps appends their cells (the standing matrix first,
// then the XL rows) without renumbering anything.
func RunScale(o exp.Options, sweeps ...exp.Sweep) (ScaleReport, error) {
	var scenarios []exp.Scenario
	for _, sw := range sweeps {
		scenarios = append(scenarios, sw.Expand()...)
	}
	rep := ScaleReport{Schema: ScaleSchema, BaseSeed: o.BaseSeed, Trials: o.Trials, Note: scaleNote}
	if rep.Trials < 1 {
		rep.Trials = 1
	}
	for _, sc := range scenarios {
		sc := sc
		//lint:allow simtime -- wall-clock trial timing is the measurement itself (events/sec), outside the simulated world
		start := time.Now()
		agg, err := exp.Run(o, func(_ int, seed uint64) (map[string]float64, error) {
			return RunScenario(sc, seed)
		})
		if err != nil {
			return ScaleReport{}, fmt.Errorf("runner: scale cell %q: %w", sc.Name(), err)
		}
		//lint:allow simtime -- wall-clock trial timing is the measurement itself (events/sec), outside the simulated world
		wall := time.Since(start)

		cell := ScaleCell{Name: sc.Name(), Scenario: sc, Aggregate: agg}
		topo, err := ScenarioTopology(sc)
		if err != nil {
			return ScaleReport{}, fmt.Errorf("runner: scale cell %q: %w", sc.Name(), err)
		}
		cell.Members = topo.NumNodes()
		cell.Regions = topo.NumRegions()
		cell.Depth = topo.Depth()
		// Divide nanoseconds as float64: wall.Milliseconds() truncates to
		// integer milliseconds first, quantizing fast cells' trajectory.
		cell.WallMsPerTrial = float64(wall.Nanoseconds()) / 1e6 / float64(rep.Trials)
		if ev, ok := agg.Metric(MKEvents); ok && wall > 0 {
			totalEvents := ev.Mean * float64(ev.N)
			cell.EventsPerSec = totalEvents / wall.Seconds()
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// ScenarioTopology builds the topology a scenario's Tree, Star and Regions
// fields describe. The kernel, the scale annotations and repro.Group all
// build theirs here, so a shape means one thing at every door.
func ScenarioTopology(sc exp.Scenario) (*topology.Topology, error) {
	switch {
	case sc.Tree != nil:
		return topology.BalancedTree(sc.Tree.Branch, sc.Tree.Levels, sc.Tree.Members)
	case sc.Star:
		return topology.Star(sc.Regions...)
	default:
		return topology.Chain(sc.Regions...)
	}
}
