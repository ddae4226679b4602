package runner

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
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
// from laneWidth, the one rule: at Shards: 2, a lossless or hash-loss
// two-region cluster of either protocol runs two lanes, and each of the
// three reasons keeps a cluster on one loop — a tracer (rrmp only: a tree
// cluster takes none), shared-stream loss, one region. Chain(6, 6) has two
// regions, so two distinct lane clocks mean exactly two lanes.
func TestEngineChoiceIsOneRule(t *testing.T) {
	two, err := topology.Chain(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	one, err := topology.SingleRegion(12)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		topo   *topology.Topology
		loss   netsim.LossModel
		tracer trace.Tracer
	}
	builders := map[string]func(row) (sim.Engine, error){
		"rrmp": func(r row) (sim.Engine, error) {
			c, err := NewCluster(ClusterConfig{Topo: r.topo, Seed: 5, Loss: r.loss, Tracer: r.tracer, Shards: 2})
			if err != nil {
				return nil, err
			}
			return c.Engine, nil
		},
		"rmtp": func(r row) (sim.Engine, error) {
			c, err := NewTreeCluster(TreeClusterConfig{Topo: r.topo, Seed: 5, Loss: r.loss, Shards: 2})
			if err != nil {
				return nil, err
			}
			return c.Engine, nil
		},
	}
	rows := []struct {
		name    string
		row     func() row
		sharded bool
	}{
		{"lossless", func() row { return row{topo: two} }, true},
		{"hash", func() row { return row{topo: two, loss: netsim.NewHashLoss(9, 0.2, two.NumNodes(), nil)} }, true},
		{"bernoulli", func() row { return row{topo: two, loss: &netsim.BernoulliLoss{P: 0.2, Rng: rng.New(9)}} }, false},
		{"one-region hash", func() row { return row{topo: one, loss: netsim.NewHashLoss(9, 0.2, one.NumNodes(), nil)} }, false},
		{"traced", func() row { return row{topo: two, tracer: &trace.Memory{}} }, false},
	}
	for proto, build := range builders {
		for _, l := range rows {
			r := l.row()
			if r.tracer != nil && proto == "rmtp" {
				continue
			}
			engine, err := build(r)
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

// TestLaneCensus pins which standing cells get lanes: over the 600 cells
// of BENCH_sweep.json's three families, each asking for two lanes, exactly
// the 24 "30,30" hash-loss cells build the sharded engine. The other 576
// are one-region cells, which lanes cannot split, or shared-stream-loss
// cells, and build the single loop. Clusters are built; nothing runs.
func TestLaneCensus(t *testing.T) {
	sharded, total := 0, 0
	for _, sw := range standingSweeps() {
		for _, sc := range sw.Expand() {
			total++
			sc.Shards = 2
			want := sc.LossMode == "hash" && slices.Equal(sc.Regions, []int{30, 30})
			switch engine := kernelEngine(t, sc).(type) {
			case *sim.Sharded:
				sharded++
				if !want {
					t.Errorf("%s: builds lanes", sc.Name())
				}
			case *sim.Sim:
				if want {
					t.Errorf("%s: builds the single loop", sc.Name())
				}
			default:
				t.Fatalf("%s: engine %T", sc.Name(), engine)
			}
		}
	}
	if sharded != 24 || total != 600 {
		t.Fatalf("%d of %d cells build lanes, want 24 of 600", sharded, total)
	}
}

// standingSweeps returns BENCH_sweep.json's three families in record order.
func standingSweeps() []exp.Sweep {
	return []exp.Sweep{exp.DefaultSweep(), exp.WorkloadSweep(), exp.AdaptiveSweep()}
}

// TestBudgetDividesCores pins how RunSweeps divides the CPU budget. A
// one-job run of a two-region hash-loss cell at Parallel: 2 takes both
// cores as lanes; the 600-cell matrix at Parallel: 2 has more jobs than
// cores, so every trial gets one lane. Either way each stored
// Cell.Scenario is the declared one: the budget reaches the kernel only.
func TestBudgetDividesCores(t *testing.T) {
	hash := exp.Sweep{Regions: [][]int{{6, 6}}, Losses: []float64{0.2}, LossMode: "hash", Msgs: 5, Horizon: time.Second}
	var ran exp.Scenario
	rep, err := exp.RunSweeps(exp.Options{Trials: 1, Parallel: 2, BaseSeed: 1}, []exp.Sweep{hash},
		func(sc exp.Scenario, seed uint64) (map[string]float64, error) {
			ran = sc
			return RunScenario(sc, seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	engine := kernelEngine(t, ran)
	if sharded, ok := engine.(*sim.Sharded); !ok || sharded.Clock(0) == sharded.Clock(1) {
		t.Fatalf("one-job two-region hash cell at Parallel: 2 runs %T, want two lanes", engine)
	}
	sameScenarios(t, rep, hash)

	var mu sync.Mutex
	widths := map[int]int{}
	rep, err = exp.RunSweeps(exp.Options{Trials: 1, Parallel: 2, BaseSeed: 1}, standingSweeps(),
		func(sc exp.Scenario, _ uint64) (map[string]float64, error) {
			mu.Lock()
			widths[sc.Shards]++
			mu.Unlock()
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(widths) != 1 || widths[1] != 600 {
		t.Fatalf("600-cell sweep at Parallel: 2 asked for lane widths %v, want 600 trials at 1", widths)
	}
	sameScenarios(t, rep, standingSweeps()...)
}

// sameScenarios fails unless rep stores exactly the sweeps' declared
// cells, in order.
func sameScenarios(t *testing.T, rep exp.Report, sweeps ...exp.Sweep) {
	t.Helper()
	var want []exp.Scenario
	for _, sw := range sweeps {
		want = append(want, sw.Expand()...)
	}
	if len(rep.Cells) != len(want) {
		t.Fatalf("report holds %d cells, the sweeps declare %d", len(rep.Cells), len(want))
	}
	for i, c := range rep.Cells {
		if !reflect.DeepEqual(c.Scenario, want[i]) {
			t.Fatalf("cell %d stored as %+v, declared %+v", i, c.Scenario, want[i])
		}
	}
}

// kernelEngine builds sc's protocol driver for seed 1 the way runScenario
// does and returns its engine.
func kernelEngine(t *testing.T, sc exp.Scenario) sim.Engine {
	t.Helper()
	topo, err := ScenarioTopology(sc)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := ScenarioLoss(sc, 1, topo.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	tl, _, err := TimelineFor(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := publisherNodes(topo, tl.Clients())
	if err != nil {
		t.Fatal(err)
	}
	var d protocolDriver
	if sc.Protocol == "rmtp" {
		d, err = newRMTPDriver(sc, 1, topo, loss, nil)
	} else {
		d, err = newRRMPDriver(sc, 1, topo, loss, pubs, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d.engine
}
