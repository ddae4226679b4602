package netsim

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func testMsg(t wire.Type) wire.Message {
	return wire.Message{Type: t, From: 0, ID: wire.MessageID{Source: 0, Seq: 1}}
}

func TestUnicastDeliversWithLatency(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: 5 * time.Millisecond}, nil)
	var at time.Duration = -1
	var got Packet
	n.Register(1, func(p Packet) { at, got = s.Now(), p })
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("delivered at %v", at)
	}
	if got.From != 0 || got.To != 1 || got.Msg.Type != wire.TypeData {
		t.Fatalf("packet %+v", got)
	}
	if got.Size != got.Msg.EncodedSize() {
		t.Fatalf("size %d != encoded size %d", got.Size, got.Msg.EncodedSize())
	}
}

func TestUnregisteredTargetCountsDropped(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{}, nil)
	n.Unicast(0, 9, testMsg(wire.TypeData))
	s.Run()
	if n.Stats().DroppedCount(wire.TypeData) != 1 {
		t.Fatal("drop not counted for unregistered target")
	}
	if n.Stats().DeliveredCount(wire.TypeData) != 0 {
		t.Fatal("phantom delivery")
	}
}

func TestMulticastIndependentDelivery(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: time.Millisecond}, nil)
	gotCount := 0
	for id := topology.NodeID(1); id <= 3; id++ {
		n.Register(id, func(Packet) { gotCount++ })
	}
	n.Multicast(0, []topology.NodeID{0, 1, 2, 3}, testMsg(wire.TypeData))
	s.Run()
	if gotCount != 3 {
		t.Fatalf("delivered to %d members, want 3 (self skipped)", gotCount)
	}
	if n.Stats().SentCount(wire.TypeData) != 3 {
		t.Fatalf("sent counter %d", n.Stats().SentCount(wire.TypeData))
	}
}

func TestBernoulliLossRespectsOnlyFilter(t *testing.T) {
	s := sim.New()
	loss := &BernoulliLoss{P: 1.0, Only: map[wire.Type]bool{wire.TypeData: true}, Rng: rng.New(1)}
	n := New(s, UniformLatency{}, loss)
	dataGot, reqGot := 0, 0
	n.Register(1, func(p Packet) {
		if p.Msg.Type == wire.TypeData {
			dataGot++
		} else {
			reqGot++
		}
	})
	n.Unicast(0, 1, testMsg(wire.TypeData))
	n.Unicast(0, 1, testMsg(wire.TypeLocalRequest))
	s.Run()
	if dataGot != 0 {
		t.Fatal("lossy DATA delivered despite P=1")
	}
	if reqGot != 1 {
		t.Fatal("request dropped despite Only={DATA}")
	}
	if n.Stats().DroppedCount(wire.TypeData) != 1 {
		t.Fatal("drop not counted")
	}
}

func TestBernoulliLossRate(t *testing.T) {
	s := sim.New()
	loss := &BernoulliLoss{P: 0.3, Rng: rng.New(7)}
	n := New(s, UniformLatency{}, loss)
	got := 0
	n.Register(1, func(Packet) { got++ })
	const total = 20000
	for i := 0; i < total; i++ {
		n.Unicast(0, 1, testMsg(wire.TypeData))
	}
	s.Run()
	rate := 1 - float64(got)/total
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("empirical loss rate %v, want ~0.3", rate)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	s := sim.New()
	ge := &GilbertElliott{PGood: 0, PBad: 1, PGB: 0.05, PBG: 0.2, Rng: rng.New(3)}
	n := New(s, UniformLatency{}, ge)
	var outcomes []bool // true = delivered
	n.Register(1, func(Packet) { outcomes = append(outcomes, true) })
	const total = 50000
	for i := 0; i < total; i++ {
		n.Unicast(0, 1, testMsg(wire.TypeData))
	}
	s.Run()
	lossRate := 1 - float64(len(outcomes))/total
	// Stationary bad-state probability = PGB/(PGB+PBG) = 0.2; with PBad=1
	// the long-run loss rate should be near 0.2.
	if lossRate < 0.15 || lossRate > 0.25 {
		t.Fatalf("GE loss rate %v, want ~0.2", lossRate)
	}
}

func TestGilbertElliottPerPairState(t *testing.T) {
	ge := &GilbertElliott{PGood: 0, PBad: 1, PGB: 1, PBG: 0, Rng: rng.New(3)}
	// First packet on pair (0,1) transitions to bad and drops.
	if !ge.Drop(0, 1, wire.TypeData) {
		t.Fatal("pair (0,1) should enter bad state and drop")
	}
	// Independent pair (0,2) starts in good state but also transitions.
	if !ge.Drop(0, 2, wire.TypeData) {
		t.Fatal("pair (0,2) should independently enter bad state")
	}
}

func TestSetDownBlocksTraffic(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: time.Millisecond}, nil)
	got := 0
	n.Register(1, func(Packet) { got++ })

	n.SetDown(1, true)
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.Run()
	if got != 0 {
		t.Fatal("delivered to down node")
	}

	n.SetDown(1, false)
	if n.IsDown(1) {
		t.Fatal("IsDown after revive")
	}
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.Run()
	if got != 1 {
		t.Fatal("revived node did not receive")
	}
}

func TestCrashWhilePacketInFlight(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: 10 * time.Millisecond}, nil)
	got := 0
	n.Register(1, func(Packet) { got++ })
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.After(5*time.Millisecond, func() { n.SetDown(1, true) })
	s.Run()
	if got != 0 {
		t.Fatal("packet delivered to node that crashed mid-flight")
	}
	if n.Stats().DroppedCount(wire.TypeData) != 1 {
		t.Fatal("mid-flight crash drop not counted")
	}
}

func TestHierLatency(t *testing.T) {
	topo, err := topology.Chain(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lm := HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	if got := lm.OneWay(0, 1); got != 5*time.Millisecond {
		t.Fatalf("intra = %v", got)
	}
	if got := lm.OneWay(0, 2); got != 50*time.Millisecond {
		t.Fatalf("adjacent regions = %v", got)
	}
	if got := lm.OneWay(0, 4); got != 100*time.Millisecond {
		t.Fatalf("two hops = %v", got)
	}
}

func TestStatsTotals(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{}, nil)
	n.Register(1, func(Packet) {})
	n.Unicast(0, 1, testMsg(wire.TypeData))
	n.Unicast(0, 1, testMsg(wire.TypeRepair))
	s.Run()
	if n.Stats().TotalSent() != 2 {
		t.Fatalf("TotalSent = %d", n.Stats().TotalSent())
	}
	if n.Stats().TotalBytes() <= 0 {
		t.Fatal("TotalBytes not accounted")
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	New(sim.New(), UniformLatency{}, nil).Register(0, nil)
}

func TestPartitionCutsCrossClassTraffic(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: time.Millisecond}, nil)
	delivered := map[topology.NodeID]int{}
	for id := topology.NodeID(0); id <= 3; id++ {
		id := id
		n.Register(id, func(Packet) { delivered[id]++ })
	}
	n.SetPartition(map[topology.NodeID]int{2: 1, 3: 1}) // {0,1} vs {2,3}

	n.Unicast(0, 1, testMsg(wire.TypeData)) // same side: delivered
	n.Unicast(0, 2, testMsg(wire.TypeData)) // crosses the cut: dropped
	n.Unicast(3, 2, testMsg(wire.TypeData)) // same side: delivered
	n.Unicast(2, 1, testMsg(wire.TypeData)) // crosses the other way: dropped
	s.Run()

	if delivered[1] != 1 || delivered[2] != 1 {
		t.Fatalf("deliveries %v, want one each for 1 and 2", delivered)
	}
	if got := n.Stats().PartitionDrops(); got != 2 {
		t.Fatalf("partition drops %d, want 2", got)
	}
	if got := n.Stats().DroppedCount(wire.TypeData); got != 2 {
		t.Fatalf("dropped count %d, want 2", got)
	}
}

func TestPartitionDropsInFlightPackets(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: 10 * time.Millisecond}, nil)
	got := 0
	n.Register(1, func(Packet) { got++ })
	n.Unicast(0, 1, testMsg(wire.TypeData))
	// The partition begins while the packet is in flight: the link goes
	// down underneath it, so it must not arrive.
	s.After(5*time.Millisecond, func() {
		n.SetPartition(map[topology.NodeID]int{1: 1})
	})
	s.Run()
	if got != 0 {
		t.Fatal("packet crossed a cut that formed while it was in flight")
	}
	if n.Stats().PartitionDrops() != 1 {
		t.Fatalf("partition drops %d, want 1", n.Stats().PartitionDrops())
	}
}

func TestPartitionHealRestoresDelivery(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: time.Millisecond}, nil)
	got := 0
	n.Register(1, func(Packet) { got++ })
	n.SetPartition(map[topology.NodeID]int{1: 1})
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.After(5*time.Millisecond, func() {
		n.ClearPartition()
		n.Unicast(0, 1, testMsg(wire.TypeData))
	})
	s.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want exactly the post-heal packet", got)
	}
	if n.Partitioned(0, 1) {
		t.Fatal("still partitioned after heal")
	}
}

func TestSetPartitionCopiesTheMap(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{}, nil)
	class := map[topology.NodeID]int{1: 1}
	n.SetPartition(class)
	class[1] = 0 // caller mutation must not leak into the network
	if !n.Partitioned(0, 1) {
		t.Fatal("partition state aliased the caller's map")
	}
	n.SetPartition(nil)
	if n.Partitioned(0, 1) {
		t.Fatal("SetPartition(nil) should clear the partition")
	}
}
