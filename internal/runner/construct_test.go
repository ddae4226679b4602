package runner

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/topology"
)

// TestNewClusterSchedulesNothing pins that building a detector-free cluster
// (pressure300's: three regions of 100, adaptive policy, 16 KB budget)
// pushes no event, so its setup time holds no event-queue work. A cluster
// with the failure detector on arms each member's first heartbeat tick
// while it is built.
func TestNewClusterSchedulesNothing(t *testing.T) {
	topo, err := topology.Chain(100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := policy.Parse("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{Topo: topo, Seed: 1, Policy: PolicyFactory(spec, 0)}
	cfg.Params.ByteBudget = 16384
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Engine.Pending(); n != 0 {
		t.Fatalf("NewCluster left %d events pending, want 0", n)
	}
}
