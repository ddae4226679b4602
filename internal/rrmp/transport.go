package rrmp

import (
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// NetTransport binds a member to the simulated network. Broadcast models
// the initial IP multicast as independent per-receiver deliveries across
// the whole group (§4: "we simulate the outcome of an IP multicast").
type NetTransport struct {
	Net  *netsim.Network
	Self topology.NodeID
	// Group is the full member list used for Broadcast. Only the sender's
	// transport needs it; leave nil for pure receivers.
	Group []topology.NodeID
}

var _ Transport = (*NetTransport)(nil)

// Send implements Transport.
func (t *NetTransport) Send(to topology.NodeID, msg wire.Message) {
	t.Net.Unicast(t.Self, to, msg)
}

// Multicast implements Transport.
func (t *NetTransport) Multicast(targets []topology.NodeID, msg wire.Message) {
	t.Net.Multicast(t.Self, targets, msg)
}

// Broadcast implements Transport.
func (t *NetTransport) Broadcast(msg wire.Message) {
	t.Net.Multicast(t.Self, t.Group, msg)
}

// ReceivePacket implements netsim.PacketReceiver, so a member registers
// itself on the network directly (netsim.RegisterReceiver) instead of
// through a per-member closure. The packet is borrowed (see
// netsim.PacketReceiver); receive keeps no reference to it.
func (m *Member) ReceivePacket(p *netsim.Packet) {
	m.receive(p.From, &p.Msg)
}

var _ netsim.PacketReceiver = (*Member)(nil)
