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
	// Tracer observes all members (nil = none). A traced cluster runs one
	// event loop whatever Shards says (see laneWidth).
	Tracer trace.Tracer
	// Shards > 1 asks for the region-sharded parallel engine (sim.Sharded):
	// regions are packed into contiguous blocks and each block gets its own
	// event loop. laneWidth decides how many the cluster gets. Aggregates
	// are byte-identical at any width.
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
	// all lists every node. Node IDs are assigned region by region in
	// ascending order (see topology.build), so the region-ordered member
	// list is exactly the dense range [0, NumNodes), filled directly
	// instead of copied one region at a time.
	all []topology.NodeID
	// clockOf returns the scheduler a node's protocol code runs against:
	// the engine itself on one loop, the owning shard's clock otherwise.
	clockOf func(topology.NodeID) clock.Scheduler
	root    *rng.Source
	sources []rng.Source // backing store of the member streams
}

// laneWidth is the one rule for how many event loops a run gets: the
// shards it asks for, capped at its region count, since lanes take whole
// regions (topology.ShardMap). A tracer (one sink fed in event order) or
// shared-stream loss (netsim.ShardSafe) keeps one loop. A run asking for
// one lane is decided before the loss model is consulted.
func laneWidth(shards int, tracer trace.Tracer, loss netsim.LossModel, regions int) int {
	if shards <= 1 || tracer != nil || !netsim.ShardSafe(loss) {
		return 1
	}
	return min(shards, regions)
}

// newDeployment is the one place a deployment's execution is decided: the
// engine (laneWidth's lanes), the default latency model and the lookahead
// it implies, whether the network shards, and the root/member rng streams.
// It reads only the Topo, Seed, Loss, Latency, Tracer, Shards and
// Lookahead fields.
func newDeployment(cfg ClusterConfig) (*deployment, error) {
	lat := cfg.Latency
	if lat == nil {
		lat = netsim.HierLatency{Topo: cfg.Topo, IntraOneWay: IntraOneWay, InterOneWay: InterOneWay}
	}
	d := &deployment{
		all:     make([]topology.NodeID, cfg.Topo.NumNodes()),
		root:    rng.New(cfg.Seed),
		sources: make([]rng.Source, cfg.Topo.NumNodes()),
	}
	for i := range d.all {
		d.all[i] = topology.NodeID(i)
	}
	width := laneWidth(cfg.Shards, cfg.Tracer, cfg.Loss, cfg.Topo.NumRegions())
	if width == 1 {
		d.engine = sim.New()
		d.clockOf = func(topology.NodeID) clock.Scheduler { return d.engine }
		d.net = netsim.New(d.engine, lat, cfg.Loss)
	} else {
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
		nodeShard, _ := cfg.Topo.NodeShards(width)
		sharded, err := sim.NewSharded(width, nodeShard, look)
		if err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		d.engine = sharded
		d.clockOf = func(n topology.NodeID) clock.Scheduler { return sharded.Clock(nodeShard[n]) }
		d.net = netsim.New(sharded, lat, cfg.Loss)
		d.net.EnableSharding(sharded, nodeShard, width)
	}
	d.net.Reserve(cfg.Topo.NumNodes())
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
		All:     d.all,
		Root:    d.root.Split(clusterRootStreamLabel),
	}
	// Per-member wiring is the 1M-row setup hot path: members and rng
	// streams come from two backing slices, each member made ready in
	// place (rrmp.Member.Init) with its buffer, index and first source
	// inline, and members register themselves as packet receivers, so a
	// member costs no allocation of its own. NewTreeCluster wires its
	// nodes the same way.
	members := make([]rrmp.Member, len(c.All))
	// Every member sends through the cluster's one netsim.Group.
	group := &netsim.Group{Net: net, Members: c.All}
	// The members of a region share one rrmp.Region, built at its first
	// member: the defaulted Params, the scheduler, the transport, the
	// tracer, the policy and the free lists of records, buffer entries and
	// heartbeat tables.
	// Regions are contiguous in c.All, and a shard runs whole regions, so
	// the members sharing one run on one event loop.
	var region *rrmp.Region
	for _, n := range c.All {
		view, err := cfg.Topo.ViewOf(n)
		if err != nil {
			return nil, fmt.Errorf("runner: view of node %d: %w", n, err)
		}
		if view.SelfIdx == 0 {
			region = rrmp.NewRegion(view, d.clockOf(n), group, cfg.Params, cfg.Tracer)
		}
		var policy core.Policy
		if cfg.Policy != nil {
			policy = cfg.Policy(view, cfg.Params)
		}
		var hooks rrmp.Hooks
		if cfg.Hooks != nil {
			hooks = cfg.Hooks(n)
		}
		m := &members[n]
		m.Init(rrmp.Config{
			View:   view,
			Rng:    d.memberRng(n),
			Policy: policy,
			Hooks:  hooks,
			Region: region,
		})
		c.Members[n] = m
		net.RegisterReceiver(n, m)
	}
	c.Sender = rrmp.NewSender(c.Members[cfg.Topo.Sender()])
	return c, nil
}

// Crash fails a member ungracefully and cuts its network: its timers
// stop, no handoff happens, and its protocol state survives for Recover.
func (c *Cluster) Crash(victim topology.NodeID) {
	c.Members[victim].Crash()
	c.Net.SetDown(victim, true)
}

// Recover reconnects a crashed member and re-runs recovery for every gap
// it knew about; see rrmp.Member.Recover.
func (c *Cluster) Recover(victim topology.NodeID) {
	c.Net.SetDown(victim, false)
	c.Members[victim].Recover()
}

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
