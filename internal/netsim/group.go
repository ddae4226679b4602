package netsim

import (
	"repro/internal/topology"
	"repro/internal/wire"
)

// Group is one multicast group on the network, sending for any of its
// nodes: each call names its sender. It is the sending side of both
// protocols (rrmp.Transport, rmtp.Transport): a cluster's members and
// nodes share one, so none holds a transport of its own. Broadcast models
// the initial IP multicast as independent per-receiver deliveries across
// the whole group (§4: "we simulate the outcome of an IP multicast").
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
