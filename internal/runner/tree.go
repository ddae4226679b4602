package runner

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/rmtp"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TreeClusterConfig describes an RMTP-baseline deployment.
type TreeClusterConfig struct {
	// Topo is the group structure; the first member of each region becomes
	// its repair server, and the root region's server is the sender.
	Topo *topology.Topology
	// Params tunes the baseline; zero fields default.
	Params rmtp.Params
	// Seed roots the randomness.
	Seed uint64
	// Loss is the network loss model (nil = lossless).
	Loss netsim.LossModel
	// Shards is ClusterConfig.Shards: laneWidth decides the engine for
	// both protocols.
	Shards int
}

// TreeCluster is a fully wired tree-protocol deployment.
type TreeCluster struct {
	Engine sim.Engine
	Net    *netsim.Network
	Topo   *topology.Topology
	Nodes  []*rmtp.Node // indexed by dense NodeID
	Sender *rmtp.Sender
	All    []topology.NodeID
}

// ServerOf returns the repair server of a node's region (the region's
// first member, by construction).
func (c *TreeCluster) ServerOf(n topology.NodeID) topology.NodeID {
	return c.Topo.MemberAt(c.Topo.RegionOf(n), 0)
}

// Leave departs a node gracefully: its timers stop and its ACK floor is
// deregistered upstream (at its region server, or — for a repair server —
// at the parent server) so the frozen floor cannot block trimming forever.
// RMTP has no server-migration protocol, so a departing repair server
// still orphans its region; that fragility is part of what the protocol
// comparison measures.
func (c *TreeCluster) Leave(victim topology.NodeID) {
	node := c.Nodes[victim]
	if node.Left() || node.Crashed() {
		return
	}
	node.Leave()
	server := c.ServerOf(victim)
	if server == victim {
		// A departing server deregisters from its parent, if any.
		if p := c.Topo.Parent(c.Topo.RegionOf(victim)); p != topology.NoRegion {
			c.Nodes[c.Topo.MemberAt(p, 0)].ForgetAcker(victim)
		}
		return
	}
	c.Nodes[server].ForgetAcker(victim)
}

// Crash fails a node ungracefully and cuts its network; its ACK floor
// stays frozen at its server (a crashed member, unlike a leaver, cannot
// deregister), so the server's buffer grows until recovery or the horizon.
func (c *TreeCluster) Crash(victim topology.NodeID) {
	c.Nodes[victim].Crash()
	c.Net.SetDown(victim, true)
}

// Recover reconnects a crashed node and restarts its protocol loops; see
// rmtp.Node.Recover.
func (c *TreeCluster) Recover(victim topology.NodeID) {
	c.Net.SetDown(victim, false)
	c.Nodes[victim].Recover()
}

// NewTreeCluster builds the RMTP baseline deployment used by ablation A2
// and the comparison benches. Nodes are wired as NewCluster wires members:
// a view each, rng streams from a backing slice, the cluster's one
// netsim.Group to send through, and the node itself registered as its
// packet receiver.
func NewTreeCluster(cfg TreeClusterConfig) (*TreeCluster, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("runner: TreeClusterConfig.Topo is required")
	}
	topo := cfg.Topo
	d, err := newDeployment(ClusterConfig{Topo: topo, Seed: cfg.Seed, Loss: cfg.Loss, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	net := d.net

	c := &TreeCluster{Engine: d.engine, Net: net, Topo: topo, Nodes: make([]*rmtp.Node, len(d.all)), All: d.all}
	childServers := make([][]topology.NodeID, topo.NumRegions())
	for r := range childServers {
		if p := topo.Parent(topology.RegionID(r)); p != topology.NoRegion {
			childServers[p] = append(childServers[p], topo.MemberAt(topology.RegionID(r), 0))
		}
	}
	group := &netsim.Group{Net: net, Members: c.All}
	for _, n := range c.All {
		view, err := topo.ViewOf(n)
		if err != nil {
			return nil, fmt.Errorf("runner: view of node %d: %w", n, err)
		}
		node := rmtp.New(rmtp.Config{
			View:         view,
			ChildServers: childServers[topo.RegionOf(n)],
			Transport:    group,
			Sched:        d.clockOf(n),
			Rng:          d.memberRng(n),
			Params:       cfg.Params,
		})
		c.Nodes[n] = node
		net.RegisterReceiver(n, node)
	}
	c.Sender = rmtp.NewSender(c.Nodes[topo.Sender()])
	return c, nil
}
