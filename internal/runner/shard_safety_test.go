package runner

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestSharedStreamLossKeepsOneLoop closes the hole direct Cluster users
// used to fall into: a shared-stream loss model with Shards: 4 must run one
// event loop (NewCluster asks netsim.ShardSafe itself), not shard and let
// four lanes race on the one rng. The run must equal the Shards: 1 run
// counter for counter; the race job runs this under -race, where the old
// behaviour was a reported data race.
func TestSharedStreamLossKeepsOneLoop(t *testing.T) {
	only := map[wire.Type]bool{wire.TypeData: true}
	models := map[string]func() netsim.LossModel{
		"bernoulli": func() netsim.LossModel {
			return &netsim.BernoulliLoss{P: 0.2, Only: only, Rng: rng.New(9)}
		},
		"gilbert-elliott": func() netsim.LossModel {
			return &netsim.GilbertElliott{PGood: 0.05, PBad: 0.9, PGB: 0.02, PBG: 0.2, Only: only, Rng: rng.New(9)}
		},
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			run := func(shards int) string {
				topo, err := topology.BalancedTree(4, 2, 80)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewCluster(ClusterConfig{Topo: topo, Seed: 5, Loss: model(), Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := c.Engine.(*sim.Sim); !ok {
					t.Fatalf("Shards: %d with shared-stream loss runs %T, want the single loop", shards, c.Engine)
				}
				c.Sender.StartSessions()
				for i := 0; i < 10; i++ {
					c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64)) })
				}
				c.Engine.RunUntil(3 * time.Second)
				var delivered, duplicates int64
				var integral float64
				for _, m := range c.Members {
					delivered += m.Metrics().Delivered.Value()
					duplicates += m.Metrics().Duplicates.Value()
					integral += m.Buffer().OccupancyIntegral(c.Engine.Now())
				}
				st := c.Net.Stats()
				return fmt.Sprintf("delivered=%d duplicates=%d sent=%d dropped_data=%d events=%d integral=%v",
					delivered, duplicates, st.TotalSent(), st.DroppedCount(wire.TypeData), c.Engine.Processed(), integral)
			}
			serial, wide := run(1), run(4)
			if serial != wide {
				t.Fatalf("Shards: 4 diverged from Shards: 1\n 1: %s\n 4: %s", serial, wide)
			}
		})
	}

	// The rule denies the two shared-stream types and nothing else: a hash
	// model, and a caller's wrapper around one, still shard.
	topo, err := topology.BalancedTree(4, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	hash := netsim.NewHashLoss(9, 0.2, topo.NumNodes(), only)
	for name, loss := range map[string]netsim.LossModel{"hash": hash, "wrapped": wrappedLoss{hash}} {
		c, err := NewCluster(ClusterConfig{Topo: topo, Seed: 5, Loss: loss, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Engine.(*sim.Sharded); !ok {
			t.Fatalf("%s loss with Shards: 4 runs %T, want the sharded engine", name, c.Engine)
		}
	}
}

// wrappedLoss is a caller-side LossModel wrapper (bench/ instruments loss
// models this way).
type wrappedLoss struct{ netsim.LossModel }

// TestEngineChoiceIsOneRule pins that both cluster types take their engine
// from newDeployment's one rule: at Shards: 2, a lossless or hash-loss
// cluster of either protocol runs two lanes, and a shared-stream loss
// keeps it on one loop. Chain(6, 6) has two regions, so two distinct lane
// clocks mean exactly two lanes.
func TestEngineChoiceIsOneRule(t *testing.T) {
	topo, err := topology.Chain(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func(netsim.LossModel) (sim.Engine, error){
		"rrmp": func(loss netsim.LossModel) (sim.Engine, error) {
			c, err := NewCluster(ClusterConfig{Topo: topo, Seed: 5, Loss: loss, Shards: 2})
			if err != nil {
				return nil, err
			}
			return c.Engine, nil
		},
		"rmtp": func(loss netsim.LossModel) (sim.Engine, error) {
			c, err := NewTreeCluster(TreeClusterConfig{Topo: topo, Seed: 5, Loss: loss, Shards: 2})
			if err != nil {
				return nil, err
			}
			return c.Engine, nil
		},
	}
	losses := []struct {
		name    string
		loss    func() netsim.LossModel
		sharded bool
	}{
		{"lossless", func() netsim.LossModel { return nil }, true},
		{"hash", func() netsim.LossModel { return netsim.NewHashLoss(9, 0.2, topo.NumNodes(), nil) }, true},
		{"bernoulli", func() netsim.LossModel { return &netsim.BernoulliLoss{P: 0.2, Rng: rng.New(9)} }, false},
	}
	for proto, build := range builders {
		for _, l := range losses {
			engine, err := build(l.loss())
			if err != nil {
				t.Fatalf("%s/%s: %v", proto, l.name, err)
			}
			sharded, ok := engine.(*sim.Sharded)
			switch {
			case !l.sharded:
				if _, ok := engine.(*sim.Sim); !ok {
					t.Errorf("%s/%s at Shards: 2 runs %T, want *sim.Sim", proto, l.name, engine)
				}
			case !ok:
				t.Errorf("%s/%s at Shards: 2 runs %T, want *sim.Sharded", proto, l.name, engine)
			case sharded.Clock(0) == sharded.Clock(1):
				t.Errorf("%s/%s at Shards: 2 runs one lane", proto, l.name)
			}
		}
	}
}
