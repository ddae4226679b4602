package netsim

import (
	"repro/internal/topology"
	"repro/internal/wire"
)

// Endpoint binds one node to the network: the sending side of a protocol
// node of either kind (rrmp's Transport, rmtp's). Broadcast models the
// initial IP multicast as independent per-receiver deliveries across the
// whole group (§4: "we simulate the outcome of an IP multicast"). A
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

// Multicast transmits msg to every target but the sender, in target order.
func (e *Endpoint) Multicast(targets []topology.NodeID, msg wire.Message) {
	e.Net.Multicast(e.Self, targets, msg)
}

// Broadcast transmits msg to the whole group.
func (e *Endpoint) Broadcast(msg wire.Message) {
	e.Net.Multicast(e.Self, e.Group, msg)
}
