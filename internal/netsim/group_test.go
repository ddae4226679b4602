package netsim

import (
	"maps"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestGroupSendsAsTheNamedSender pins Group's three sends: each delivers
// with Packet.From set to the node the call names, Send reaches its one
// peer, Multicast its targets and Broadcast the whole group, and the two
// fan-outs skip the sender.
func TestGroupSendsAsTheNamedSender(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: time.Millisecond}, nil)
	g := &Group{Net: n, Members: []topology.NodeID{0, 1, 2, 3, 4}}
	got := map[topology.NodeID]topology.NodeID{} // receiver → packet sender
	for _, id := range g.Members {
		n.Register(id, func(p Packet) {
			if _, dup := got[id]; dup {
				t.Errorf("node %d received twice", id)
			}
			got[id] = p.From
		})
	}
	for _, tc := range []struct {
		name string
		send func()
		want map[topology.NodeID]topology.NodeID
	}{
		{"Send", func() { g.Send(2, 4, testMsg(wire.TypeData)) }, map[topology.NodeID]topology.NodeID{4: 2}},
		{"Multicast", func() { g.Multicast(1, []topology.NodeID{0, 1, 2}, testMsg(wire.TypeData)) },
			map[topology.NodeID]topology.NodeID{0: 1, 2: 1}},
		{"Broadcast", func() { g.Broadcast(3, testMsg(wire.TypeData)) },
			map[topology.NodeID]topology.NodeID{0: 3, 1: 3, 2: 3, 4: 3}},
	} {
		clear(got)
		tc.send()
		s.RunUntil(-1)
		if !maps.Equal(got, tc.want) {
			t.Errorf("%s delivered receiver→sender %v, want %v", tc.name, got, tc.want)
		}
	}
}
