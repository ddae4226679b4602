package runner

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// twoPhaseSnapshot is the observable outcome of one invariant run: who
// holds a long-term copy of what, and who accepted handoffs.
type twoPhaseSnapshot struct {
	longTerm map[topology.NodeID]map[wire.MessageID]bool
	handoffs map[topology.NodeID]int64
}

// runTwoPhaseInvariantTrial builds a hash-elect cluster over topo, runs a
// lossy workload (plus optional graceful leaves) past the idle threshold,
// and returns the long-term holder snapshot taken before the TTL plus the
// cluster for follow-up checks.
func runTwoPhaseInvariantTrial(t *testing.T, topo *topology.Topology, seed uint64,
	churn float64) (*Cluster, []wire.MessageID, twoPhaseSnapshot) {
	t.Helper()

	params := rrmp.DefaultParams()
	params.C = 3
	params.LongTermTTL = 3 * time.Second

	mem := &trace.Memory{}
	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Loss:   netsimBernoulli{p: 0.05, rng: rng.New(seed).Split(lossStreamLabel)},
		Tracer: mem,
		Policy: func(view topology.View, p rrmp.Params) core.Policy {
			region := append([]topology.NodeID{view.Self}, view.Peers()...)
			return core.NewHashElect(p.IdleThreshold, int(p.C), view.Self, region, p.LongTermTTL)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	c.Sender.StartSessions()
	const msgs = 6
	ids := make([]wire.MessageID, 0, msgs)
	for i := 0; i < msgs; i++ {
		c.Engine.At(time.Duration(i)*50*time.Millisecond, func() {
			ids = append(ids, c.Sender.Publish(make([]byte, 64)))
		})
	}
	if churn > 0 {
		var candidates []topology.NodeID
		for _, n := range c.All {
			if n != topo.Sender() {
				candidates = append(candidates, n)
			}
		}
		scheduleChurn(rng.New(seed).Split(churnStreamLabel), churn, 1200*time.Millisecond,
			candidates, func(at time.Duration, victim topology.NodeID) {
				c.Engine.At(at, func() { c.Members[victim].Leave() })
			})
	}

	// Run well past the idle threshold (40 ms), stop the session stream,
	// and drain, so every surviving copy is a long-term election — but stay
	// far below the 3 s TTL.
	c.Engine.RunUntil(1500 * time.Millisecond)
	c.Sender.StopSessions()
	c.Engine.RunUntil(1800 * time.Millisecond)

	snap := twoPhaseSnapshot{
		longTerm: make(map[topology.NodeID]map[wire.MessageID]bool),
		handoffs: make(map[topology.NodeID]int64),
	}
	for _, e := range mem.Filter(trace.HandoffRecv) {
		snap.handoffs[e.Node]++
	}
	for _, n := range c.All {
		m := c.Members[n]
		holders := make(map[wire.MessageID]bool)
		for _, id := range ids {
			if e, ok := m.Buffer().Get(id); ok {
				if e.State() != core.StateLongTerm {
					t.Fatalf("node %d holds %v short-term %v after the idle horizon", n, id, e.State())
				}
				holders[id] = true
			}
		}
		snap.longTerm[n] = holders
	}
	return c, ids, snap
}

// netsimBernoulli is a minimal local Bernoulli DATA-loss model so the test
// controls its own rng stream (mirrors RunScenario's construction).
type netsimBernoulli struct {
	p   float64
	rng *rng.Source
}

func (b netsimBernoulli) Drop(_, _ topology.NodeID, t wire.Type) bool {
	if t != wire.TypeData {
		return false
	}
	return b.rng.Bernoulli(b.p)
}

// TestTwoPhaseInvariantHashElected is the §3 invariant property test:
// across seeds and topologies, once a message has gone idle, long-term
// copies exist only at the hash-elected bufferer set (plus members that
// accepted an in-flight handoff from a leaver), every region retains at
// least one copy until the long-term TTL, and after the TTL quiesced
// copies are gone. (That the buffer's index is invisible at the protocol
// level — same evictions, same Entries() and handoff order — is pinned
// below this layer, by core's TestPolicyDifferentialAcrossIndexKinds.)
func TestTwoPhaseInvariantHashElected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed invariant sweep; skipped with -short")
	}
	topologies := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"single20", func() (*topology.Topology, error) { return topology.SingleRegion(20) }},
		{"chain12+12", func() (*topology.Topology, error) { return topology.Chain(12, 12) }},
		{"tree-b2d3", func() (*topology.Topology, error) { return topology.BalancedTree(2, 3, 42) }},
	}
	for _, tc := range topologies {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, churn := range []float64{0, 2} {
				name := fmt.Sprintf("%s/seed=%d/churn=%v", tc.name, seed, churn)
				t.Run(name, func(t *testing.T) {
					topo, err := tc.build()
					if err != nil {
						t.Fatal(err)
					}
					c, ids, snap := runTwoPhaseInvariantTrial(t, topo, seed, churn)
					checkTwoPhaseInvariant(t, c, topo, ids, snap, churn)
				})
			}
		}
	}
}

func checkTwoPhaseInvariant(t *testing.T, c *Cluster, topo *topology.Topology,
	ids []wire.MessageID, snap twoPhaseSnapshot, churn float64) {
	t.Helper()

	// Elected sets are computable by anyone from the region membership —
	// that is the point of the deterministic policy (§3.4).
	elected := func(r topology.RegionID, id wire.MessageID) map[topology.NodeID]bool {
		members := topo.Members(r)
		p := core.NewHashElect(time.Millisecond, 3, members[0], members, 0)
		set := make(map[topology.NodeID]bool)
		for _, b := range p.Bufferers(id) {
			set[b] = true
		}
		return set
	}

	for _, n := range c.All {
		m := c.Members[n]
		r := topo.RegionOf(n)
		for id := range snap.longTerm[n] {
			if !elected(r, id)[n] && snap.handoffs[n] == 0 {
				t.Fatalf("node %d (region %d) holds a long-term copy of %v but is neither hash-elected nor a handoff recipient", n, r, id)
			}
		}
		_ = m
	}

	// Retention: every region keeps at least one copy of every message
	// until the TTL (leavers hand off inside the region, so churn must not
	// void this), provided the region still has live members.
	for _, id := range ids {
		for r := 0; r < topo.NumRegions(); r++ {
			live := 0
			holders := 0
			for _, n := range topo.Members(topology.RegionID(r)) {
				if !c.Members[n].Left() {
					live++
				}
				if snap.longTerm[n][id] {
					holders++
				}
			}
			if live > 0 && holders == 0 {
				t.Fatalf("region %d retains no copy of %v before the TTL (%d live members)", r, id, live)
			}
		}
	}

	// After the TTL, quiesced long-term copies age out (§3.2: "eventually
	// even a long-term bufferer may decide to discard").
	c.Engine.RunUntil(6 * time.Second)
	for _, n := range c.All {
		if got := c.Members[n].Buffer().LongTermCount(); got != 0 {
			t.Fatalf("node %d still holds %d long-term entries after the TTL", n, got)
		}
	}
}

// TestScaleTrialUnder10s is the acceptance bound the scale record tracks:
// every row of the standing scale ladder — the legacy 1k cells, the 10k
// BENCH_scale XL cell, and the 100k-member depth-3 XL cell on the sharded
// engine — must complete one trial with delivery intact and inside its
// event budget. The name records the row's origin as a 10 s wall-clock
// bound; the wall is still logged, but it is not asserted: it measured the
// host, not the code (the 100k row took 17.7 s when `go test ./...` ran
// other packages beside it on 2 cores, 6.7 s alone), and host time is
// bench/'s job. What fails the test is a function of the seed alone —
// delivery_ratio, and an events ceiling about 10% above what the row
// executes today, which is the work a wall-clock regression would have to
// come from. The 1k rows keep the full 20-message / 5 s workload; the XL
// rows use ScaleSweepXL's trimmed burst probe (10 messages / 2 s), the
// same cells BENCH_scale.json records (their aggregates there are checked
// byte for byte by CI's record job). Under -short only the 10k row runs
// (the CI race job's macro check); RRMP_SHARDS overrides the XL shard
// widths (the event count is the same at every width).
func TestScaleTrialUnder10s(t *testing.T) {
	cases := []struct {
		name      string
		sc        exp.Scenario
		inShort   bool
		maxEvents float64 // seed 1 executes 92759 / 91327 / 407942 / 4173166
	}{
		{name: "1k-depth2", maxEvents: 100e3, sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 4, Levels: 3, Members: 1000},
			Loss: 0.05, Churn: 1, Policy: "two-phase",
			Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		}},
		{name: "1k-depth3", maxEvents: 100e3, sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 4, Levels: 4, Members: 1000},
			Loss: 0.05, Churn: 1, Policy: "two-phase",
			Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		}},
		// The 10k XL row. Serial on purpose unless RRMP_SHARDS says
		// otherwise: at this size one heap still beats the barrier overhead
		// (1.5 s serial vs 4 s at 8 shards on the reference 1-core host).
		{name: "10k-depth3", inShort: true, maxEvents: 450e3, sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 4, Levels: 4, Members: 10000},
			Loss: 0.05, LossMode: "hash", Churn: 1, Policy: "two-phase",
			Msgs: 10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
			Shards: envShards(1),
		}},
		// The 100k XL row runs on the sharded engine: the ~4.2M-event trial
		// takes 6.6 s at 32 shards vs ~27 s serial on the reference host —
		// many small per-lane heaps beat one giant heap.
		{name: "100k-depth3", maxEvents: 4.6e6, sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 8, Levels: 4, Members: 100000},
			Loss: 0.05, LossMode: "hash", Churn: 1, Policy: "two-phase",
			Msgs: 10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
			Shards: envShards(32),
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.inShort {
				t.Skip("macro trial; skipped with -short")
			}
			start := time.Now()
			out, err := RunScenario(tc.sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			wall := time.Since(start)
			t.Logf("%v wall, %.0f events, %.0f events/sec",
				wall, out["events"], out["events"]/wall.Seconds())
			if out["delivery_ratio"] < 0.99 {
				t.Fatalf("delivery ratio %.3f", out["delivery_ratio"])
			}
			if out["events"] > tc.maxEvents {
				t.Fatalf("trial executed %.0f events, want <= %.0f", out["events"], tc.maxEvents)
			}
		})
	}
}

// TestScaleTrial1M is the acceptance bound for the final rung of the
// scale ladder, a cell no committed record carries: one million members on
// a branch-16 4-level tree (hierarchy depth 3, ~229 members per region
// across 4369 regions) running ScaleSweepXL's burst probe under hash-mode
// Gilbert–Elliott loss, the loss regime of wireless multicast. It must
// finish one trial with delivery intact inside an event budget about 10%
// above what the cell executes (60.7–61.1M events over seeds 1–3); seed 1
// executes 60 906 733. Its wall time and peak memory are host figures and
// live in CHANGES.md: the latest, from the entry in which a timer began
// to call its owner (clock.Firer), is 1 688 016 kB peak RSS (VmHWM) in
// 25.4 s, one fresh test process at one lane (RRMP_SHARDS=1) on a 2-core
// host. The wall is logged, not asserted, for TestScaleTrialUnder10s's
// reason. One trial costs tens of seconds and gigabytes, so this test
// runs only when RRMP_SCALE_1M=1; RRMP_SHARDS overrides the shard width. The same cell
// runs outside go test, on the CPU budget's width, as
//
//	rrmp-sim -tree 16,4,1000000 -loss 0.05 -loss-mode hash -burst -hold 500ms -msgs 10 -horizon 2s
func TestScaleTrial1M(t *testing.T) {
	if os.Getenv("RRMP_SCALE_1M") == "" {
		t.Skip("set RRMP_SCALE_1M=1 to run the 1M-member macro trial")
	}
	sc := exp.Scenario{
		Tree: &exp.TreeShape{Branch: 16, Levels: 4, Members: 1000000},
		Loss: 0.05, LossMode: "hash", Burst: true, Policy: "two-phase",
		FixedHold: 500 * time.Millisecond,
		Msgs:      10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
		Shards: envShards(32),
	}
	start := time.Now()
	out, err := RunScenario(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	t.Logf("%v wall, %.0f events, %.0f events/sec",
		wall, out["events"], out["events"]/wall.Seconds())
	if out["delivery_ratio"] < 0.99 {
		t.Fatalf("delivery ratio %.3f", out["delivery_ratio"])
	}
	if maxEvents := 67e6; out["events"] > maxEvents {
		t.Fatalf("trial executed %.0f events, want <= %.0f", out["events"], maxEvents)
	}
}
