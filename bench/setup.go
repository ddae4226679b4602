package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/topology"
)

// setupBlocks is how many blocks setup_s is the median of.
const setupBlocks = 5

// buildTopology builds a scenario's topology the way runner does.
func buildTopology(sc exp.Scenario) (*topology.Topology, error) {
	switch {
	case sc.Tree != nil:
		return topology.BalancedTree(sc.Tree.Branch, sc.Tree.Levels, sc.Tree.Members)
	case sc.Star:
		return topology.Star(sc.Regions...)
	default:
		return topology.Chain(sc.Regions...)
	}
}

// buildCluster wires the cluster one trial of sc runs on (NewTreeCluster
// for rmtp cells) over topo, with the scenario's policy factory, byte
// budget, detector flag and shard width. No event is executed. The loss
// model is left out: it is one counter slice, and building it needs the
// layer packages this file must not import.
func buildCluster(sc exp.Scenario, topo *topology.Topology, seed uint64) error {
	if sc.Protocol == "rmtp" {
		cfg := runner.TreeClusterConfig{Topo: topo, Seed: seed}
		cfg.Params.ByteBudget = sc.ByteBudget
		_, err := runner.NewTreeCluster(cfg)
		return err
	}
	spec, err := policy.Parse(sc.Policy)
	if err != nil {
		return err
	}
	cfg := runner.ClusterConfig{
		Topo:   topo,
		Seed:   seed,
		Policy: runner.PolicyFactory(spec, sc.FixedHold),
		Shards: sc.Shards,
	}
	cfg.Params.ByteBudget = sc.ByteBudget
	cfg.Params.FDEnabled = sc.Crash > 0 || sc.PartitionAt > 0 ||
		(sc.Workload != nil && sc.Workload.LateJoinFrac > 0)
	_, err = runner.NewCluster(cfg)
	return err
}

// buildDeployment constructs what one trial of sc constructs before its
// first event: the topology and the cluster on it.
func buildDeployment(sc exp.Scenario, seed uint64) error {
	topo, err := buildTopology(sc)
	if err != nil {
		return err
	}
	return buildCluster(sc, topo, seed)
}

// measureSetup returns setup_s: the median over setupBlocks blocks of the
// wall time of one block, each block building every scenario in cells
// `builds` times back-to-back. Medians of single builds varied +-30%
// between processes on the seed; half-second blocks agree within 10%.
// A collection runs between blocks, outside the timed span.
func measureSetup(cells []exp.Scenario, builds int, seed uint64) (float64, error) {
	// The trials before this left a heap sized for them; release it so
	// the collector paces these builds as it would in a fresh process.
	debug.FreeOSMemory()
	blocks := make([]float64, 0, setupBlocks)
	for b := 0; b < setupBlocks; b++ {
		t0 := time.Now()
		for i := 0; i < builds; i++ {
			for _, sc := range cells {
				if err := buildDeployment(sc, seed); err != nil {
					return 0, fmt.Errorf("setup: %s: %w", sc.Name(), err)
				}
			}
		}
		blocks = append(blocks, time.Since(t0).Seconds())
		runtime.GC()
	}
	return median(blocks), nil
}
