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
	// Tracer observes all members (nil = none). A tracer is one
	// sink fed in event order, so a traced cluster always runs the serial
	// engine, whatever Shards says: the trace is then a pure function of
	// the seed, and aggregates are byte-identical at any width anyway.
	Tracer trace.Tracer
	// Shards > 1 runs the trial on the region-sharded parallel engine
	// (sim.Sharded): regions are packed into at most Shards contiguous
	// blocks and each block gets its own event loop. Aggregates stay
	// byte-identical to the single-loop engine at any shard count. A Loss
	// that is not shard-safe (netsim.ShardSafe: the shared-stream models)
	// keeps the cluster on one loop whatever Shards says, as a tracer does.
	Shards int
	// Lookahead bounds the sharded engine's conservative windows and must
	// not exceed the minimum cross-region packet latency. It defaults to
	// InterOneWay under the default hierarchical latency model; a custom
	// Latency with Shards > 1 must set it explicitly.
	Lookahead time.Duration
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	// Engine drives the simulation: a *sim.Sim on one event loop, a
	// *sim.Sharded on several.
	Engine  sim.Engine
	Net     *netsim.Network
	Topo    *topology.Topology
	Members []*rrmp.Member // indexed by dense NodeID
	Sender  *rrmp.Sender
	All     []topology.NodeID
	Root    *rng.Source // harness-side randomness (bufferer choices etc.)
}

// deployment is the substrate under a cluster of either protocol: the
// engine, the network on it and the rng family its nodes draw from.
type deployment struct {
	engine sim.Engine
	net    *netsim.Network
	// clockOf returns the scheduler a node's protocol code runs against:
	// the engine itself on one loop, the owning shard's clock otherwise.
	clockOf func(topology.NodeID) clock.Scheduler
	root    *rng.Source
	sources []rng.Source // backing store of the member streams
}

// newDeployment is the one place a deployment's execution is decided: the
// engine (one loop unless cfg asks for more and everything in play allows
// it), the default latency model and the lookahead it implies, whether the
// network shards, and the root/member rng streams. It reads only the Topo,
// Seed, Loss, Latency, Tracer, Shards and Lookahead fields.
func newDeployment(cfg ClusterConfig) (*deployment, error) {
	lat := cfg.Latency
	if lat == nil {
		lat = netsim.HierLatency{Topo: cfg.Topo, IntraOneWay: IntraOneWay, InterOneWay: InterOneWay}
	}
	d := &deployment{
		root:    rng.New(cfg.Seed),
		sources: make([]rng.Source, cfg.Topo.NumNodes()),
	}
	// A tracer is one sink fed in event order and a shared-stream loss
	// model is one rng drawn in send order: either pins the run to one
	// event loop.
	if cfg.Shards > 1 && cfg.Tracer == nil && netsim.ShardSafe(cfg.Loss) == nil {
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
		nodeShard, eff := cfg.Topo.NodeShards(cfg.Shards)
		if eff > 1 {
			sharded, err := sim.NewSharded(eff, nodeShard, look)
			if err != nil {
				return nil, fmt.Errorf("runner: %w", err)
			}
			d.engine = sharded
			d.clockOf = func(n topology.NodeID) clock.Scheduler { return sharded.Clock(nodeShard[n]) }
			d.net = netsim.New(sharded, lat, cfg.Loss)
			d.net.EnableSharding(sharded, nodeShard, eff)
			return d, nil
		}
	}
	d.engine = sim.New()
	d.clockOf = func(topology.NodeID) clock.Scheduler { return d.engine }
	d.net = netsim.New(d.engine, lat, cfg.Loss)
	return d, nil
}

// memberRng returns node n's stream of the member family (labels
// memberStreamBase + n off the seed's root).
func (d *deployment) memberRng(n topology.NodeID) *rng.Source {
	d.root.SplitInto(memberStreamBase+uint64(n), &d.sources[n])
	return &d.sources[n]
}

// NewCluster builds a deployment: one member per topology node, registered
// on a simulated network, with the topology's sender wrapped as the
// protocol sender.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("runner: ClusterConfig.Topo is required")
	}
	d, err := newDeployment(cfg)
	if err != nil {
		return nil, err
	}
	net := d.net

	c := &Cluster{
		Engine:  d.engine,
		Net:     net,
		Topo:    cfg.Topo,
		Members: make([]*rrmp.Member, cfg.Topo.NumNodes()),
		Root:    d.root.Split(clusterRootStreamLabel),
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
		transports[n] = rrmp.NetTransport{Net: net, Self: n, Group: c.All}
		m := rrmp.NewMember(rrmp.Config{
			View:      view,
			Transport: &transports[n],
			Sched:     d.clockOf(n),
			Rng:       d.memberRng(n),
			Params:    cfg.Params,
			Policy:    policy,
			Tracer:    cfg.Tracer,
			Hooks:     hooks,
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
