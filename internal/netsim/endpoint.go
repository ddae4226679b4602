package netsim

import (
	"repro/internal/topology"
	"repro/internal/wire"
)

// Endpoint binds one node to the network: the sending side of an rmtp
// node (rmtp.Transport). Broadcast, here and in Group, models the initial
// IP multicast as independent per-receiver deliveries across the whole
// group (§4: "we simulate the outcome of an IP multicast"). A tree
// cluster keeps its endpoints in one backing slice, so attaching a node
// allocates nothing.
type Endpoint struct {
	Net  *Network
	Self topology.NodeID
	// Group is the full member list used for Broadcast. Only the sender's
	// endpoint needs it; leave nil for pure receivers.
	Group []topology.NodeID
}

// Send transmits msg to one peer.
func (e *Endpoint) Send(to topology.NodeID, msg wire.Message) {
	e.Net.Unicast(e.Self, to, msg)
}

// Broadcast transmits msg to the whole group.
func (e *Endpoint) Broadcast(msg wire.Message) {
	e.Net.Multicast(e.Self, e.Group, msg)
}

// Group is one multicast group on the network, sending for any of its
// nodes: each call names its sender. It is the sending side rrmp's members
// share, one per region (rrmp.NewRegion), so a member holds no transport
// of its own.
type Group struct {
	Net *Network
	// Members is the whole group, the targets of Broadcast.
	Members []topology.NodeID
}

// Send transmits msg from one node to one peer.
func (g *Group) Send(from, to topology.NodeID, msg wire.Message) {
	g.Net.Unicast(from, to, msg)
}

// Multicast transmits msg from one node to every target but itself, in
// target order.
func (g *Group) Multicast(from topology.NodeID, targets []topology.NodeID, msg wire.Message) {
	g.Net.Multicast(from, targets, msg)
}

// Broadcast transmits msg from one node to the whole group.
func (g *Group) Broadcast(from topology.NodeID, msg wire.Message) {
	g.Net.Multicast(from, g.Members, msg)
}
