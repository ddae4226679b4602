package rrmp

import "repro/internal/netsim"

var _ Transport = (*netsim.Group)(nil)

// ReceivePacket implements netsim.PacketReceiver, so a member registers
// itself on the network directly (netsim.RegisterReceiver) instead of
// through a per-member closure. The packet is borrowed (see
// netsim.PacketReceiver); receive keeps no reference to it.
func (m *Member) ReceivePacket(p *netsim.Packet) {
	m.receive(p.From, &p.Msg)
}

var _ netsim.PacketReceiver = (*Member)(nil)
