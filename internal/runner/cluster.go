// Package runner builds complete simulated RRMP deployments and drives the
// experiments that regenerate every figure in the paper's evaluation (§4),
// plus the ablations listed in DESIGN.md.
package runner

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Paper §4 network constants: 10 ms round-trip within a region, and a much
// larger inter-region latency.
const (
	IntraOneWay = 5 * time.Millisecond
	InterOneWay = 50 * time.Millisecond
)

// ClusterConfig describes a simulated deployment.
type ClusterConfig struct {
	// Topo is the group structure; required.
	Topo *topology.Topology
	// Params tunes the protocol (zero fields default to the paper's §4
	// values).
	Params rrmp.Params
	// Seed roots all randomness for the run.
	Seed uint64
	// Loss is the network loss model (nil = lossless).
	Loss netsim.LossModel
	// Latency overrides the default hierarchical model
	// (IntraOneWay/InterOneWay).
	Latency netsim.LatencyModel
	// Policy, if non-nil, builds a per-member buffering policy override.
	Policy func(view topology.View, params rrmp.Params) core.Policy
	// Hooks, if non-nil, builds per-member instrumentation callbacks.
	Hooks func(n topology.NodeID) rrmp.Hooks
	// Tracer observes all members (nil = none). An enabled tracer is one
	// sink fed in event order, so a traced cluster always runs the serial
	// engine, whatever Shards says: the trace is then a pure function of
	// the seed, and aggregates are byte-identical at any width anyway.
	Tracer trace.Tracer
	// BufferIndex selects every member's buffer index implementation
	// (tests run the legacy map side by side with the dense default).
	BufferIndex core.IndexKind
	// Shards > 1 runs the trial on the region-sharded parallel engine
	// (sim.Sharded): regions are packed into at most Shards contiguous
	// blocks and each block gets its own event loop. Aggregates stay
	// byte-identical to the single-loop engine at any shard count, but
	// every randomized model in play must be shard-safe: loss must be nil
	// or per-sender (netsim.HashLoss) — RunScenario gates this
	// automatically, direct Cluster users must themselves.
	Shards int
	// Lookahead bounds the sharded engine's conservative windows and must
	// not exceed the minimum cross-region packet latency. It defaults to
	// InterOneWay under the default hierarchical latency model; a custom
	// Latency with Shards > 1 must set it explicitly.
	Lookahead time.Duration
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	// Engine drives the simulation; it is always set. Sim aliases it when
	// the cluster runs the serial engine (the default), so legacy callers
	// keep their richer *sim.Sim surface; it is nil on a sharded cluster.
	Engine  sim.Engine
	Sim     *sim.Sim
	Sharded *sim.Sharded // non-nil iff the cluster runs sharded
	Net     *netsim.Network
	Topo    *topology.Topology
	Members []*rrmp.Member // indexed by dense NodeID
	Sender  *rrmp.Sender
	All     []topology.NodeID
	Root    *rng.Source // harness-side randomness (bufferer choices etc.)
}

// NewCluster builds a deployment: one member per topology node, registered
// on a simulated network, with the topology's sender wrapped as the
// protocol sender.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("runner: ClusterConfig.Topo is required")
	}
	lat := cfg.Latency
	if lat == nil {
		lat = netsim.HierLatency{Topo: cfg.Topo, IntraOneWay: IntraOneWay, InterOneWay: InterOneWay}
	}

	var (
		eng       sim.Engine
		serial    *sim.Sim
		sharded   *sim.Sharded
		nodeShard []int32
	)
	traced := cfg.Tracer != nil && cfg.Tracer.Enabled()
	if cfg.Shards > 1 && !traced {
		look := cfg.Lookahead
		if look <= 0 {
			if cfg.Latency != nil {
				return nil, fmt.Errorf("runner: Shards > 1 with a custom Latency requires an explicit Lookahead")
			}
			// Under the hierarchical model every cross-region packet pays
			// at least one InterOneWay hop, and shard blocks never split a
			// region, so InterOneWay bounds all cross-shard latency.
			look = InterOneWay
		}
		var eff int
		nodeShard, eff = cfg.Topo.NodeShards(cfg.Shards)
		if eff > 1 {
			var err error
			sharded, err = sim.NewSharded(eff, nodeShard, look)
			if err != nil {
				return nil, fmt.Errorf("runner: %w", err)
			}
			eng = sharded
		}
	}
	if eng == nil {
		serial = sim.New()
		eng = serial
	}

	net := netsim.New(eng, lat, cfg.Loss)
	if sharded != nil {
		net.EnableSharding(sharded, nodeShard, sharded.Shards())
	}
	root := rng.New(cfg.Seed)

	c := &Cluster{
		Engine:  eng,
		Sim:     serial,
		Sharded: sharded,
		Net:     net,
		Topo:    cfg.Topo,
		Members: make([]*rrmp.Member, cfg.Topo.NumNodes()),
		Root:    root.Split(clusterRootStreamLabel),
	}
	// Node IDs are assigned region by region in ascending order (see
	// topology.build), so the region-ordered member list is exactly the
	// dense range [0, NumNodes) — fill it directly instead of copying one
	// slice per region.
	total := cfg.Topo.NumNodes()
	c.All = make([]topology.NodeID, total)
	for i := range c.All {
		c.All[i] = topology.NodeID(i)
	}
	// Per-member wiring is the 1M-row setup hot path: transports and rng
	// streams come from two backing slices (zero allocations per member)
	// and members register themselves as packet receivers, so none of the
	// per-member closures, transport boxes, or split sources that used to
	// dominate construction survive at scale.
	transports := make([]rrmp.NetTransport, total)
	sources := make([]rng.Source, total)
	for _, n := range c.All {
		view, err := cfg.Topo.ViewOf(n)
		if err != nil {
			return nil, fmt.Errorf("runner: view of node %d: %w", n, err)
		}
		var policy core.Policy
		if cfg.Policy != nil {
			policy = cfg.Policy(view, cfg.Params)
		}
		var hooks rrmp.Hooks
		if cfg.Hooks != nil {
			hooks = cfg.Hooks(n)
		}
		sched := clock.Scheduler(eng)
		if sharded != nil {
			sched = sharded.Clock(nodeShard[n])
		}
		transports[n] = rrmp.NetTransport{Net: net, Self: n, Group: c.All}
		root.SplitInto(memberStreamBase+uint64(n), &sources[n])
		m := rrmp.NewMember(rrmp.Config{
			View:        view,
			Transport:   &transports[n],
			Sched:       sched,
			Rng:         &sources[n],
			Params:      cfg.Params,
			Policy:      policy,
			Tracer:      cfg.Tracer,
			Hooks:       hooks,
			BufferIndex: cfg.BufferIndex,
		})
		c.Members[n] = m
		net.RegisterReceiver(n, m)
	}
	c.Sender = rrmp.NewSender(c.Members[cfg.Topo.Sender()])
	return c, nil
}

// Member returns the member for a node id.
func (c *Cluster) Member(n topology.NodeID) *rrmp.Member { return c.Members[n] }

// CountReceived returns how many members have ever received id.
func (c *Cluster) CountReceived(id wire.MessageID) int {
	count := 0
	for _, m := range c.Members {
		if m.HasReceived(id) {
			count++
		}
	}
	return count
}

// CountBuffered returns how many members currently buffer id.
func (c *Cluster) CountBuffered(id wire.MessageID) int {
	count := 0
	for _, m := range c.Members {
		if m.Buffer().Has(id) {
			count++
		}
	}
	return count
}
