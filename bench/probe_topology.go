package main

import (
	"time"

	"repro/internal/topology"
)

// topology layer: building scale100k's tree, and the per-member view
// lookup NewCluster performs once per node.
func probeTopology(scale int, m map[string]float64) {
	total := 100000 / scale
	var walls []float64
	var topo *topology.Topology
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		t, err := topology.BalancedTree(8, 4, total)
		if err != nil {
			return
		}
		walls = append(walls, time.Since(t0).Seconds())
		topo = t
	}
	m["topology.tree100k_s"] = median(walls)

	n := topo.NumNodes()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := topo.ViewOf(topology.NodeID(i)); err != nil {
			return
		}
	}
	m["topology.viewof_ns"] = nsPerOp(t0, n)
}
