package netsim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

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
	step, net, all = allocNetOn(t, topo, width)
	return step, net, topo, all
}

// allocNetOn is allocNet over topo.
func allocNetOn(t *testing.T, topo *topology.Topology, width int) (step func(from topology.NodeID, send func()), net *Network, all []topology.NodeID) {
	t.Helper()
	lat := HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	if width == 0 {
		s := sim.New()
		net = New(s, lat, nil)
		step = func(_ topology.NodeID, send func()) {
			send()
			s.RunUntil(-1)
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
			e.RunUntil(-1)
		}
	}
	for r := 0; r < topo.NumRegions(); r++ {
		for _, n := range topo.Members(topology.RegionID(r)) {
			net.Register(n, func(Packet) {})
			all = append(all, n)
		}
	}
	return step, net, all
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
		if sent, lost := net.Stats().sent[wire.TypeData].Value(), net.Stats().DroppedCount(wire.TypeData); lost != 0 || sent == 0 {
			t.Fatalf("width %d: %d of %d unicasts dropped", width, lost, sent)
		}
	}
}

// TestMulticastFanoutAllocs guards the initial-dissemination path: a full
// 200-member multicast, once from each region. A fan-out takes one
// delivery record, and one queued event, per arrival instant and receiving
// shard, not one per target. At width 2 half of each fan-out crosses to
// the other shard through the outbox, and its records go home to the
// sending shard's pools once delivered.
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
		if sent, lost := net.Stats().sent[wire.TypeData].Value(), net.Stats().DroppedCount(wire.TypeData); lost != 0 || sent == 0 {
			t.Fatalf("width %d: %d of %d multicast packets dropped", width, lost, sent)
		}
	}
}

// TestLargeMulticastAllocs holds a 10 000-target multicast from one sender
// on a warm network at zero bytes, at every width: its records take target
// lists from the sending shard's spare lists, and the records delivered on
// the other shard return them there. It sums runtime.MemStats bytes, which
// AllocsPerRun's integer average of objects would round away for a list
// that regrows now and then. MemStats also counts what the runtime
// allocates on other threads, so the collector is off and the guard takes
// the least of three runs. Under the race detector the sharded widths'
// windows allocate in the detector's instrumentation (raceEnabled), so
// there only the plain route and width 1 are held to zero.
func TestLargeMulticastAllocs(t *testing.T) {
	topo, err := topology.BalancedTree(4, 4, 10000)
	if err != nil {
		t.Fatal(err)
	}
	const warm, sends, runs = 2, 8, 3
	for _, width := range allocWidths {
		step, net, all := allocNetOn(t, topo, width)
		from := topo.Sender()
		msg := wire.Message{Type: wire.TypeData, From: from,
			ID: wire.MessageID{Source: from, Seq: 1}, Payload: make([]byte, 256)}
		send := func() { net.Multicast(from, all, msg) }
		for range warm { // warm the pools to fan-out depth
			step(from, send)
		}
		least := uint64(math.MaxUint64)
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			for range runs {
				runtime.ReadMemStats(&before)
				for range sends {
					step(from, send)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
		}()
		if least != 0 && !(raceEnabled && width > 1) {
			t.Fatalf("width %d: %d multicasts to %d targets allocated at least %d B, want 0", width, sends, len(all)-1, least)
		}
		if got, want := net.Stats().sent[wire.TypeData].Value(), int64((warm+sends*runs)*(len(all)-1)); got != want {
			t.Fatalf("width %d: %d packets sent, want %d", width, got, want)
		}
	}
}

// TestReserveSizesTablesOnce pins that a network told its node count up
// front registers that many nodes without regrowing a table. Growing one
// slot per registration reallocated both per-node tables about 35 times
// over a 100k-member build.
func TestReserveSizesTablesOnce(t *testing.T) {
	const nodes = 10000
	topo, err := topology.SingleRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	var r PacketReceiver = receiverFunc(func(*Packet) {})
	net := New(sim.New(), HierLatency{Topo: topo, IntraOneWay: time.Millisecond, InterOneWay: time.Millisecond}, nil)
	net.Reserve(nodes)
	// A MemStats delta over the first pass: AllocsPerRun's warm-up pass
	// would size the tables before it measured. MemStats also counts the
	// odd runtime allocation on another thread (a few KB at most), so the
	// bound is one receiver table, which any regrowth exceeds.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for node := range topology.NodeID(nodes) {
		net.RegisterReceiver(node, r)
		net.SetDown(node, false)
	}
	runtime.ReadMemStats(&after)
	table := uint64(nodes * unsafe.Sizeof(r))
	if got := after.TotalAlloc - before.TotalAlloc; got >= table {
		t.Fatalf("registering %d reserved nodes allocated %d B, want under one %d B table", nodes, got, table)
	}
	if len(net.receivers) != nodes || len(net.down) != nodes {
		t.Fatalf("tables cover %d and %d nodes, want %d", len(net.receivers), len(net.down), nodes)
	}
}
