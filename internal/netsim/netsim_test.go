package netsim

import (
	"fmt"
	"slices"
	"strings"
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
	s.RunUntil(-1)
	if at != 5*time.Millisecond {
		t.Fatalf("delivered at %v", at)
	}
	if got.From != 0 || got.Msg.Type != wire.TypeData {
		t.Fatalf("packet %+v", got)
	}
}

func TestUnregisteredTargetCountsDropped(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{}, nil)
	n.Unicast(0, 9, testMsg(wire.TypeData))
	s.RunUntil(-1)
	if n.Stats().DroppedCount(wire.TypeData) != 1 {
		t.Fatal("drop not counted for unregistered target")
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
	s.RunUntil(-1)
	if gotCount != 3 {
		t.Fatalf("delivered to %d members, want 3 (self skipped)", gotCount)
	}
	if got := n.Stats().sent[wire.TypeData].Value(); got != 3 {
		t.Fatalf("sent counter %d", got)
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
	s.RunUntil(-1)
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
	s.RunUntil(-1)
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
	s.RunUntil(-1)
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
	s.RunUntil(-1)
	if got != 0 {
		t.Fatal("delivered to down node")
	}

	n.SetDown(1, false)
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.RunUntil(-1)
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
	s.RunUntil(-1)
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
	s.RunUntil(-1)
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
	s.RunUntil(-1)

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
	s.RunUntil(-1)
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
	s.RunUntil(-1)
	if got != 1 {
		t.Fatalf("delivered %d, want exactly the post-heal packet", got)
	}
}

func TestSetPartitionCopiesTheMap(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{}, nil)
	got := 0
	n.Register(1, func(Packet) { got++ })
	class := map[topology.NodeID]int{1: 1}
	n.SetPartition(class)
	class[1] = 0 // caller mutation must not leak into the network
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.RunUntil(-1)
	if got != 0 {
		t.Fatal("partition state aliased the caller's map")
	}
	n.SetPartition(nil)
	n.Unicast(0, 1, testMsg(wire.TypeData))
	s.RunUntil(-1)
	if got != 1 {
		t.Fatal("SetPartition(nil) should clear the partition")
	}
}

// dropLog is a PacketDropper that logs what it is handed, and how.
type dropLog struct {
	s   *sim.Sim
	log *[]string
}

func (d dropLog) ReceivePacket(p *Packet) { d.note("recv", p) }
func (d dropLog) DropPacket(p *Packet)    { d.note("drop", p) }

func (d dropLog) note(how string, p *Packet) {
	*d.log = append(*d.log, fmt.Sprintf("%v %s %v from %d table %p", d.s.Now(), how, p.Msg.Type, p.From, p.Msg.Counters))
}

// TestDroppedUnicastIsOffered pins which drops a PacketDropper is handed:
// a unicast cut at send by the loss model, a down endpoint or a
// partition, and one whose target went down in flight, each with its own
// slices; never a multicast's, whose slices its targets share; and at send
// only when the target's loop is the sender's.
func TestDroppedUnicastIsOffered(t *testing.T) {
	s := sim.New()
	loss := &BernoulliLoss{P: 1, Only: map[wire.Type]bool{wire.TypeRepair: true}, Rng: rng.New(1)}
	n := New(s, UniformLatency{Delay: 10 * time.Millisecond}, loss)
	var log []string
	for node := topology.NodeID(1); node <= 3; node++ {
		n.RegisterReceiver(node, dropLog{s, &log})
	}
	table := []uint64{7}
	hb := wire.Message{Type: wire.TypeHeartbeat, From: 0, Counters: table}
	step := func(f func()) {
		f()
		s.RunUntil(s.Now() + time.Second)
	}
	step(func() { n.Unicast(0, 1, hb) })                                          // delivered
	step(func() { n.Unicast(0, 1, wire.Message{Type: wire.TypeRepair}) })         // lost at send
	step(func() { n.SetDown(1, true); n.Unicast(0, 1, hb); n.SetDown(1, false) }) // target down
	step(func() { n.SetDown(0, true); n.Unicast(0, 1, hb); n.SetDown(0, false) }) // sender down
	step(func() {
		n.SetPartition(map[topology.NodeID]int{1: 1})
		n.Unicast(0, 1, hb)
		n.ClearPartition()
	})
	step(func() { // the target goes down in flight: dropped on arrival
		n.Unicast(0, 1, hb)
		s.After(5*time.Millisecond, func() { n.SetDown(1, true) })
	})
	n.SetDown(1, false)
	step(func() { n.Multicast(0, []topology.NodeID{1, 2}, wire.Message{Type: wire.TypeRepair, Counters: table}) })
	step(func() { // a multicast target goes down in flight
		n.Multicast(0, []topology.NodeID{1}, hb)
		s.After(5*time.Millisecond, func() { n.SetDown(1, true) })
	})
	n.SetDown(1, false)
	// Nodes 0 and 2 share a loop and node 3 runs on another: a drop at
	// send is offered only to a receiver on the sender's loop.
	n.shardOf, n.shards = []int32{0, 0, 0, 1}, make([]shard, 2)
	step(func() { n.SetDown(2, true); n.SetDown(3, true); n.Unicast(0, 2, hb); n.Unicast(0, 3, hb) })

	p := fmt.Sprintf("%p", table)
	want := []string{
		"10ms recv HB from 0 table " + p,
		"1s drop REPAIR from 0 table 0x0",
		"2s drop HB from 0 table " + p,
		"3s drop HB from 0 table " + p,
		"4s drop HB from 0 table " + p,
		"5.01s drop HB from 0 table " + p,
		"8s drop HB from 0 table " + p,
	}
	if !slices.Equal(log, want) {
		t.Fatalf("receivers were handed\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}
