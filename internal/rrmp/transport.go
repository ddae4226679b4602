package rrmp

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

var _ Transport = (*netsim.Group)(nil)

// ReceivePacket implements netsim.PacketReceiver, so a member registers
// itself on the network directly (netsim.RegisterReceiver) instead of
// through a per-member closure. The packet is borrowed (see
// netsim.PacketReceiver); receive keeps no reference to it.
func (m *Member) ReceivePacket(p *netsim.Packet) {
	m.receive(p.From, &p.Msg)
}

// DropPacket implements netsim.PacketDropper: a heartbeat the network
// dropped on its way to this member is spent like a delivered one, so its
// table goes back to the region's free list.
func (m *Member) DropPacket(p *netsim.Packet) {
	if p.Msg.Type == wire.TypeHeartbeat {
		m.recycleTable(p.Msg.Counters)
	}
}

var _ netsim.PacketDropper = (*Member)(nil)
