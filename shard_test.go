package repro

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestBlackoutKeepsSharedStreamLossOnOneLoop guards the hazard the
// blackout wrapper poses: it hides a shared-stream loss model from the
// cluster, so unless netsim.ShardSafe sees through it (blackoutLoss.Unwrap)
// a group at Shards: 2 would get two lanes over one rng, which Unicast
// forbids of anything it calls from a shard loop. The group must run one
// event loop, and two runs must agree; the race job runs this under -race.
func TestBlackoutKeepsSharedStreamLossOnOneLoop(t *testing.T) {
	run := func() GroupStats {
		g, err := NewGroup(GroupConfig{
			Scenario: Scenario{Regions: []int{20, 20}, Loss: 0.2, Shards: 2},
			Seed:     3,
			Blackout: []int{1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := g.cluster.Engine.(*sim.Sim); !ok {
			t.Fatalf("blacked-out group with shared-stream loss at Shards: 2 runs %T, want *sim.Sim", g.cluster.Engine)
		}
		g.StartSessions()
		for i := 0; i < 10; i++ {
			g.Publish(make([]byte, 64))
			g.Run(20 * time.Millisecond)
		}
		g.StopSessions()
		g.Run(3 * time.Second)
		return g.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
