package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Allocation-regression guards for the delivery hot paths the PR 3 scale
// rewrite brought to zero steady-state allocations (dense NodeID-indexed
// handler tables, pooled delivery records, fixed counter arrays). A 200-
// receiver multicast used to cost 796 allocs; these tests pin the floor at
// zero so the win cannot silently erode.

// allocNet builds the benchmark two-region network with no-op handlers:
// on one Sim at width 0, otherwise routed through a Sharded engine of that
// many loops (EnableSharding), past setup so sends take the per-shard path.
// The returned step runs send from node from's own event-loop context and
// then drains the engine.
func allocNet(t *testing.T, width int) (step func(from topology.NodeID, send func()), net *Network, topo *topology.Topology, all []topology.NodeID) {
	t.Helper()
	topo, err := topology.Chain(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	lat := HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	if width == 0 {
		s := sim.New()
		net = New(s, lat, nil)
		step = func(_ topology.NodeID, send func()) {
			send()
			s.Run()
		}
	} else {
		nodeShard, eff := topo.NodeShards(width)
		if eff != width {
			t.Fatalf("asked for %d shards, topology packs into %d", width, eff)
		}
		e, err := sim.NewSharded(width, nodeShard, lat.InterOneWay)
		if err != nil {
			t.Fatal(err)
		}
		net = New(e, lat, nil)
		net.EnableSharding(e, nodeShard, width)
		e.RunUntil(0)
		step = func(from topology.NodeID, send func()) {
			e.PostFrom(int32(from), int32(from), 0, send)
			e.Run()
		}
	}
	for r := 0; r < topo.NumRegions(); r++ {
		for _, n := range topo.Members(topology.RegionID(r)) {
			net.Register(n, func(Packet) {})
			all = append(all, n)
		}
	}
	return step, net, topo, all
}

// allocWidths are the routes the guards cover: the plain single loop, and
// the sharded route at one and two loops.
var allocWidths = []int{0, 1, 2}

// TestUnicastDeliverAllocs guards one unicast through to handler dispatch.
func TestUnicastDeliverAllocs(t *testing.T) {
	for _, width := range allocWidths {
		step, net, topo, _ := allocNet(t, width)
		from, to := topo.Sender(), topo.MemberAt(0, 1)
		msg := wire.Message{Type: wire.TypeData, From: from,
			ID: wire.MessageID{Source: from, Seq: 1}, Payload: make([]byte, 256)}
		send := func() { net.Unicast(from, to, msg) }
		for i := 0; i < 64; i++ { // warm the event and delivery pools
			step(from, send)
		}
		avg := testing.AllocsPerRun(200, func() { step(from, send) })
		if avg != 0 {
			t.Fatalf("width %d: unicast delivery allocates %.2f objects/op, want 0", width, avg)
		}
		if sent, got := net.Stats().SentCount(wire.TypeData), net.Stats().DeliveredCount(wire.TypeData); got != sent || got == 0 {
			t.Fatalf("width %d: %d of %d unicasts delivered", width, got, sent)
		}
	}
}

// TestMulticastFanoutAllocs guards the initial-dissemination path: a full
// 200-member multicast with per-receiver delivery events, once from each
// region. At width 2 half of each fan-out crosses to the other shard through
// the outbox, and a delivery record is recycled into the shard it lands on
// — so traffic in both directions is what keeps every shard's pool stocked;
// one-way cross-shard traffic pays one record per packet at the sender.
func TestMulticastFanoutAllocs(t *testing.T) {
	for _, width := range allocWidths {
		step, net, topo, all := allocNet(t, width)
		a, b := topo.Sender(), topo.MemberAt(1, 0)
		msg := wire.Message{Type: wire.TypeData, From: a,
			ID: wire.MessageID{Source: a, Seq: 1}, Payload: make([]byte, 256)}
		sendA := func() { net.Multicast(a, all, msg) }
		sendB := func() { net.Multicast(b, all, msg) }
		round := func() {
			step(a, sendA)
			step(b, sendB)
		}
		for i := 0; i < 16; i++ { // warm the pools to fan-out depth
			round()
		}
		avg := testing.AllocsPerRun(100, round)
		if avg != 0 {
			t.Fatalf("width %d: two 200-receiver multicasts allocate %.2f objects/op, want 0", width, avg)
		}
		if sent, got := net.Stats().SentCount(wire.TypeData), net.Stats().DeliveredCount(wire.TypeData); got != sent || got == 0 {
			t.Fatalf("width %d: %d of %d multicast packets delivered", width, got, sent)
		}
	}
}
