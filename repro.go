package repro

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rrmp"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Re-exported identifiers so facade users speak one vocabulary.
type (
	// NodeID identifies a group member.
	NodeID = topology.NodeID
	// MessageID identifies a data message ([source, sequence], §1).
	MessageID = wire.MessageID
	// Params are the protocol tunables (see internal/rrmp for field docs).
	Params = rrmp.Params
	// Metrics are per-member protocol counters.
	Metrics = rrmp.Metrics
	// Member is one protocol participant.
	Member = rrmp.Member
	// Scenario declares a deployment the way a sweep cell does (see
	// internal/exp for field docs).
	Scenario = exp.Scenario
	// TreeShape is a balanced multi-level hierarchy: branch, levels and
	// total members (Scenario.Tree).
	TreeShape = exp.TreeShape
	// GroupStats sums per-member metrics across the whole group (see
	// internal/runner.Totals for field docs).
	GroupStats = runner.Totals
)

// DefaultParams returns the paper's §4 parameter defaults.
func DefaultParams() Params { return rrmp.DefaultParams() }

// GroupConfig declares a Group.
type GroupConfig struct {
	// Scenario is the deployment: topology (Regions, Star or Tree), DATA
	// loss (Loss, LossMode, Burst), buffering policy (Policy, FixedHold),
	// C, Lambda, RepairBackoff, ByteBudget and Shards, built exactly as a
	// sweep cell of the same fields builds them. A Group is driven by its
	// caller, so NewGroup rejects the fields that script a kernel run:
	// another Protocol, the publish stream and the fault timeline.
	Scenario Scenario
	// Seed is the run's root random seed.
	Seed uint64
	// Tune, when non-nil, adjusts the parameters the scenario declares,
	// for the fields a Scenario does not carry (LongTermTTL, ParentRTT,
	// CopyOnStore, FDEnabled, ...). It starts from the paper's defaults.
	Tune func(*Params)
	// Blackout lists regions (by index) whose members miss every initial
	// multicast, the paper's "regional loss" that only remote recovery
	// repairs (§2.2).
	Blackout []int
}

// scriptField names the first field of sc that scripts a kernel run — a
// protocol other than RRMP, the publish stream or the fault timeline — or
// returns "" when there is none.
func scriptField(sc Scenario) string {
	switch {
	case sc.Protocol != "" && sc.Protocol != "rrmp":
		return "Protocol"
	case sc.Churn != 0:
		return "Churn"
	case sc.Crash != 0:
		return "Crash"
	case sc.CrashRecover != 0:
		return "CrashRecover"
	case sc.PartitionAt != 0:
		return "PartitionAt"
	case sc.PartitionDur != 0:
		return "PartitionDur"
	case sc.Msgs != 0:
		return "Msgs"
	case sc.Gap != 0:
		return "Gap"
	case sc.Horizon != 0:
		return "Horizon"
	case sc.PayloadBytes != 0:
		return "PayloadBytes"
	case sc.PayloadModel != "":
		return "PayloadModel"
	case sc.Workload != nil:
		return "Workload"
	}
	return ""
}

// blackoutLoss drops all DATA to the victim set and defers to the inner
// model (if any) elsewhere.
type blackoutLoss struct {
	victims map[topology.NodeID]bool
	inner   netsim.LossModel
}

// Drop implements netsim.LossModel.
func (b *blackoutLoss) Drop(from, to topology.NodeID, t wire.Type) bool {
	if t == wire.TypeData && b.victims[to] {
		return true
	}
	return b.inner != nil && b.inner.Drop(from, to, t)
}

// Unwrap returns the inner model, so netsim.ShardSafe judges the group's
// engine by the model the blackout wraps.
func (b *blackoutLoss) Unwrap() netsim.LossModel { return b.inner }

// Group is a simulated RRMP deployment: one sender plus receivers arranged
// in regions, driven over virtual time. Not safe for concurrent use.
type Group struct {
	cluster *runner.Cluster
	sender  *rrmp.Sender
}

// NewGroup builds a deployment from its declaration. Topology, DATA loss,
// parameters and policy come from the runner helpers a sweep cell of the
// same scenario and seed uses, so a Group and a RunScenario cell are the
// same shape, run the same protocol and drop the same packets.
func NewGroup(cfg GroupConfig) (*Group, error) {
	sc := cfg.Scenario
	if f := scriptField(sc); f != "" {
		return nil, fmt.Errorf("repro: Scenario.%s scripts a kernel run; a Group is driven by its caller", f)
	}
	topo, err := runner.ScenarioTopology(sc)
	if err != nil {
		return nil, fmt.Errorf("repro: building topology: %w", err)
	}
	loss, err := runner.ScenarioLoss(sc, cfg.Seed, topo.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	if len(cfg.Blackout) > 0 {
		victims := make(map[topology.NodeID]bool)
		for _, r := range cfg.Blackout {
			if r < 0 || r >= topo.NumRegions() {
				return nil, fmt.Errorf("repro: blackout region %d out of range (have %d regions)", r, topo.NumRegions())
			}
			for _, n := range topo.Members(topology.RegionID(r)) {
				victims[n] = true
			}
		}
		loss = &blackoutLoss{victims: victims, inner: loss}
	}
	policy, err := runner.ScenarioPolicy(sc)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	params := runner.ScenarioParams(sc)
	if cfg.Tune != nil {
		cfg.Tune(&params)
	}

	cluster, err := runner.NewCluster(runner.ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   cfg.Seed,
		Loss:   loss,
		Policy: policy,
		Shards: sc.Shards,
	})
	if err != nil {
		return nil, fmt.Errorf("repro: building cluster: %w", err)
	}
	return &Group{cluster: cluster, sender: cluster.Sender}, nil
}

// NumMembers returns the total member count.
func (g *Group) NumMembers() int { return g.cluster.Topo.NumNodes() }

// NumRegions returns the region count.
func (g *Group) NumRegions() int { return g.cluster.Topo.NumRegions() }

// Member returns the member with the given dense id (0 <= id < NumMembers).
func (g *Group) Member(id NodeID) *Member { return g.cluster.Members[id] }

// Members returns all members in id order (shared slice; do not modify).
func (g *Group) Members() []*Member { return g.cluster.Members }

// SenderID returns the sender's node id.
func (g *Group) SenderID() NodeID { return g.cluster.Topo.Sender() }

// Publish multicasts one message from the group's sender and returns its id.
func (g *Group) Publish(payload []byte) MessageID { return g.sender.Publish(payload) }

// StartSessions begins the sender's periodic session messages (§2.1).
func (g *Group) StartSessions() { g.sender.StartSessions() }

// StopSessions stops them (so the simulation can drain).
func (g *Group) StopSessions() { g.sender.StopSessions() }

// Now returns the current virtual time.
func (g *Group) Now() time.Duration { return g.cluster.Engine.Now() }

// Run advances virtual time by d, executing all protocol events due.
func (g *Group) Run(d time.Duration) { g.cluster.Engine.RunUntil(g.cluster.Engine.Now() + d) }

// RunUntil advances virtual time to the absolute instant t.
func (g *Group) RunUntil(t time.Duration) { g.cluster.Engine.RunUntil(t) }

// At schedules fn at absolute virtual time t (workload scripting). On a
// sharded group the event runs on the coordinator's global lane at
// exactly t, between shard windows, like the fault schedule.
func (g *Group) At(t time.Duration, fn func()) { g.cluster.Engine.At(t, fn) }

// CountReceived returns how many members have received id.
func (g *Group) CountReceived(id MessageID) int { return g.cluster.CountReceived(id) }

// CountBuffered returns how many members currently buffer id.
func (g *Group) CountBuffered(id MessageID) int { return g.cluster.CountBuffered(id) }

// TotalPacketsSent returns all packets offered to the network so far.
func (g *Group) TotalPacketsSent() int64 { return g.cluster.Net.Stats().TotalSent() }

// TotalBytesSent returns all bytes offered to the network so far.
func (g *Group) TotalBytesSent() int64 { return g.cluster.Net.Stats().TotalBytes() }

// Crash fails a member ungracefully: its timers stop, no handoff happens,
// and its traffic is dropped from now on. Protocol state survives for a
// later Recover.
func (g *Group) Crash(id NodeID) { g.cluster.Crash(id) }

// Recover brings a crashed member back: its network reconnects and it
// re-runs recovery for every gap it knew about before (and learns about
// newer losses from the next session message).
func (g *Group) Recover(id NodeID) { g.cluster.Recover(id) }

// Partition splits the group into two halves — along region boundaries
// when there are multiple regions, otherwise down the middle of the
// member list — and drops every packet crossing the cut until Heal.
func (g *Group) Partition() {
	g.cluster.Net.SetPartition(runner.PartitionClasses(g.cluster.Topo))
}

// Heal reconnects a partitioned group.
func (g *Group) Heal() { g.cluster.Net.ClearPartition() }

// Leave makes a member depart gracefully, handing its long-term buffer to
// random region peers (§3.2).
func (g *Group) Leave(id NodeID) { g.cluster.Members[id].Leave() }

// Stats sums the members' metrics at the current instant.
func (g *Group) Stats() GroupStats { return g.cluster.Totals() }
