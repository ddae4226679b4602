package runner

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/rmtp"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
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
// and the comparison benches.
func NewTreeCluster(cfg TreeClusterConfig) (*TreeCluster, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("runner: TreeClusterConfig.Topo is required")
	}
	topo := cfg.Topo
	// The baseline asks for one event loop: it exists as a reference, not
	// a scale target.
	d, err := newDeployment(ClusterConfig{Topo: topo, Seed: cfg.Seed, Loss: cfg.Loss})
	if err != nil {
		return nil, err
	}
	net := d.net

	c := &TreeCluster{Engine: d.engine, Net: net, Topo: topo, Nodes: make([]*rmtp.Node, topo.NumNodes())}
	serverOf := func(r topology.RegionID) topology.NodeID { return topo.MemberAt(r, 0) }
	childServers := make(map[topology.RegionID][]topology.NodeID)
	for r := 0; r < topo.NumRegions(); r++ {
		if p := topo.Parent(topology.RegionID(r)); p != topology.NoRegion {
			childServers[p] = append(childServers[p], serverOf(topology.RegionID(r)))
		}
	}
	for r := 0; r < topo.NumRegions(); r++ {
		rid := topology.RegionID(r)
		parentServer := topology.NoNode
		if p := topo.Parent(rid); p != topology.NoRegion {
			parentServer = serverOf(p)
		}
		for _, node := range topo.Members(rid) {
			node := node
			n := rmtp.New(rmtp.Config{
				Self:          node,
				Server:        serverOf(rid),
				ParentServer:  parentServer,
				RegionMembers: topo.Members(rid),
				ChildServers:  childServers[rid],
				Send:          func(to topology.NodeID, msg wire.Message) { net.Unicast(node, to, msg) },
				Sched:         d.clockOf(node),
				Rng:           d.memberRng(node),
				Params:        cfg.Params,
			})
			c.Nodes[node] = n
			c.All = append(c.All, node)
			net.Register(node, func(p netsim.Packet) { n.Receive(p.From, p.Msg) })
		}
	}
	rootNode := c.Nodes[serverOf(0)]
	c.Sender = rmtp.NewSender(rootNode, func(msg wire.Message) {
		net.Multicast(topo.Sender(), c.All, msg)
	})
	return c, nil
}

// CountReceived returns how many nodes have received seq.
func (c *TreeCluster) CountReceived(seq uint64) int {
	count := 0
	for _, n := range c.Nodes {
		if n.HasReceived(seq) {
			count++
		}
	}
	return count
}
