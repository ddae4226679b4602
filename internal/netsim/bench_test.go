package netsim

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Benchmarks for the simulated network's delivery path: one Unicast is one
// loss draw, one latency lookup, one event push, and one handler dispatch —
// the per-packet cost every sweep cell pays tens of thousands of times.

// benchNet builds a two-region network with registered no-op handlers.
func benchNet(b *testing.B, loss LossModel) (*sim.Sim, *Network, *topology.Topology) {
	b.Helper()
	topo, err := topology.Chain(100, 100)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New()
	net := New(s, HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}, loss)
	for r := 0; r < topo.NumRegions(); r++ {
		for _, n := range topo.Members(topology.RegionID(r)) {
			net.Register(n, func(Packet) {})
		}
	}
	return s, net, topo
}

// BenchmarkUnicastDeliver measures one intra-region unicast through to
// handler dispatch (send + event + delivery).
func BenchmarkUnicastDeliver(b *testing.B) {
	s, net, topo := benchNet(b, nil)
	msg := wire.Message{Type: wire.TypeData, From: topo.Sender(), ID: wire.MessageID{Source: topo.Sender(), Seq: 1}, Payload: make([]byte, 256)}
	to := topo.MemberAt(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Unicast(topo.Sender(), to, msg)
		s.RunUntil(-1)
	}
}

// BenchmarkUnicastLossy adds an independent Bernoulli loss draw per packet.
func BenchmarkUnicastLossy(b *testing.B) {
	loss := &BernoulliLoss{P: 0.2, Rng: rng.New(7)}
	s, net, topo := benchNet(b, loss)
	msg := wire.Message{Type: wire.TypeData, From: topo.Sender(), ID: wire.MessageID{Source: topo.Sender(), Seq: 1}, Payload: make([]byte, 256)}
	to := topo.MemberAt(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Unicast(topo.Sender(), to, msg)
		s.RunUntil(-1)
	}
}

// BenchmarkMulticastFanout measures a full 200-member multicast with
// per-receiver delivery events, the initial-dissemination hot path.
func BenchmarkMulticastFanout(b *testing.B) {
	s, net, topo := benchNet(b, nil)
	var all []topology.NodeID
	for r := 0; r < topo.NumRegions(); r++ {
		all = append(all, topo.Members(topology.RegionID(r))...)
	}
	msg := wire.Message{Type: wire.TypeData, From: topo.Sender(), ID: wire.MessageID{Source: topo.Sender(), Seq: 1}, Payload: make([]byte, 256)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Multicast(topo.Sender(), all, msg)
		s.RunUntil(-1)
	}
	b.ReportMetric(float64(len(all)), "receivers")
}

// BenchmarkMulticastFanout1kDeep measures the scale target: a full
// multicast to a 1008-member, depth-3 tree (branch 4, 21 regions), the
// initial-dissemination cost every message in a 1k-member scenario pays.
func BenchmarkMulticastFanout1kDeep(b *testing.B) {
	topo, err := topology.BalancedTree(4, 3, 1008)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New()
	net := New(s, HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}, nil)
	var all []topology.NodeID
	for r := 0; r < topo.NumRegions(); r++ {
		for _, n := range topo.Members(topology.RegionID(r)) {
			net.Register(n, func(Packet) {})
			all = append(all, n)
		}
	}
	msg := wire.Message{Type: wire.TypeData, From: topo.Sender(), ID: wire.MessageID{Source: topo.Sender(), Seq: 1}, Payload: make([]byte, 256)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Multicast(topo.Sender(), all, msg)
		s.RunUntil(-1)
	}
	b.ReportMetric(float64(len(all)), "receivers")
}
