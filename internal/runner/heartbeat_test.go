package runner

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// heartbeatTap counts the distinct heartbeat tables delivered into one
// region before passing each packet on to the member. Each region has its
// own tap state: a region's members run on one event loop.
type heartbeatTap struct {
	next   netsim.PacketReceiver
	pdus   *int
	tables map[*uint64]bool
}

func (h heartbeatTap) ReceivePacket(p *netsim.Packet) {
	if p.Msg.Type == wire.TypeHeartbeat && len(p.Msg.Counters) > 0 {
		*h.pdus++
		h.tables[&p.Msg.Counters[0]] = true
	}
	h.next.ReceivePacket(p)
}

// TestRegionSharesHeartbeatTables checks that NewCluster gives the failure
// detectors of a region one free list of heartbeat tables: over 5 s of
// gossip, each 50-member region sends its ~5000 heartbeats in at most 50
// distinct tables. With a list per detector the same run needs hundreds,
// allocated where a detector's list ran dry while another's overflowed.
// The cluster runs sharded, one region per event loop, so the race job
// also checks that no list is shared across loops.
func TestRegionSharesHeartbeatTables(t *testing.T) {
	topo, err := topology.Chain(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{Topo: topo, Seed: 3, Shards: 2}
	cfg.Params.FDEnabled = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Engine.(*sim.Sharded); !ok {
		t.Fatalf("the cluster runs %T, want the sharded engine", c.Engine)
	}
	pdus := make([]int, topo.NumRegions())
	tables := make([]map[*uint64]bool, topo.NumRegions())
	for r := range tables {
		tables[r] = map[*uint64]bool{}
	}
	for n, m := range c.Members {
		r := topo.RegionOf(topology.NodeID(n))
		c.Net.RegisterReceiver(topology.NodeID(n), heartbeatTap{m, &pdus[r], tables[r]})
	}
	c.Engine.RunUntil(5 * time.Second)
	for r := range tables {
		t.Logf("region %d: %d heartbeats in %d tables", r, pdus[r], len(tables[r]))
		if pdus[r] < 4000 {
			t.Errorf("region %d delivered %d heartbeats, want at least 4000", r, pdus[r])
		}
		if len(tables[r]) > 50 {
			t.Errorf("region %d's heartbeats rode in %d distinct tables, want at most one per member (50)", r, len(tables[r]))
		}
	}
}
