package netsim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The multicast differential harness: one scripted run sends every fan-out
// through Multicast, a second through a loop of Unicast calls, and both
// must produce the same arrivals — instant, receiver, sender, message,
// type and size, in the same order on every receiving shard — and the same
// traffic counters. The script mixes driver-context sends, crash and
// partition cuts landing while packets are in flight, and receivers that
// send from inside their callback (a regional repair fan-out and a unicast
// back), which reuse records while a multicast's record is still firing.

// Script operations, run at their instant from the driver's context.
const (
	opSend = iota
	opDown
	opUp
	opPartition
	opHeal
	opKinds
)

type diffOp struct {
	at   time.Duration
	kind int
	node topology.NodeID
	arg  int
}

// arrival is what a receiver logs of one delivered packet.
type arrival struct {
	at       time.Duration
	to, from topology.NodeID
	id       wire.MessageID
	typ      wire.Type
}

// diffTopo is the harness topology: a depth-3 binary tree of regions, so
// latencies from any sender take several distinct values.
func diffTopo(t testing.TB, members int) *topology.Topology {
	t.Helper()
	topo, err := topology.BalancedTree(2, 3, members)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// diffTargets picks a send's target list: the whole group, one region, or
// the group in a scrambled order with the sender and one repeat in it, so
// arrival classes join their records out of order.
func diffTargets(topo *topology.Topology, from topology.NodeID, arg int) []topology.NodeID {
	n := topo.NumNodes()
	switch arg % 3 {
	case 0:
		all := make([]topology.NodeID, n)
		for i := range all {
			all[i] = topology.NodeID(i)
		}
		return all
	case 1:
		return topo.Members(topology.RegionID(arg / 3 % topo.NumRegions()))
	}
	out := []topology.NodeID{from}
	for i := 0; i < n; i++ {
		out = append(out, topology.NodeID((i*7+arg)%n))
	}
	return append(out, out[len(out)/2])
}

// runScript plays ops on a fresh network of the given width (0 is the
// plain single loop, as in allocWidths) and returns each receiving shard's
// arrival log and the merged traffic counters. fanout picks Multicast for
// every fan-out, including the receivers' own; otherwise each is a loop of
// Unicast.
func runScript(t testing.TB, topo *topology.Topology, width int, loss LossModel, ops []diffOp, fanout bool) ([][]arrival, Stats) {
	t.Helper()
	lat := HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	var (
		at      func(time.Duration, func())
		run     func(deadline time.Duration) uint64
		net     *Network
		shardOf []int32
		now     func(node topology.NodeID) time.Duration
	)
	if width == 0 {
		s := sim.New()
		net = New(s, lat, loss)
		at = func(d time.Duration, fn func()) { s.At(d, fn) }
		run, now = s.RunUntil, func(topology.NodeID) time.Duration { return s.Now() }
	} else {
		var eff int
		shardOf, eff = topo.NodeShards(width)
		if eff != width {
			t.Fatalf("asked for %d shards, topology packs into %d", width, eff)
		}
		e, err := sim.NewSharded(width, shardOf, lat.InterOneWay)
		if err != nil {
			t.Fatal(err)
		}
		net = New(e, lat, loss)
		net.EnableSharding(e, shardOf, width)
		at = func(d time.Duration, fn func()) { e.At(d, fn) }
		run = e.RunUntil
		now = func(node topology.NodeID) time.Duration { return e.Clock(shardOf[node]).Now() }
	}
	send := func(from topology.NodeID, targets []topology.NodeID, msg wire.Message) {
		if fanout {
			net.Multicast(from, targets, msg)
			return
		}
		for _, to := range targets {
			if to != from {
				net.Unicast(from, to, msg)
			}
		}
	}
	logs := make([][]arrival, max(width, 1))
	for i := 0; i < topo.NumNodes(); i++ {
		self := topology.NodeID(i)
		lane := 0
		if shardOf != nil {
			lane = int(shardOf[self])
		}
		net.RegisterReceiver(self, receiverFunc(func(p *Packet) {
			logs[lane] = append(logs[lane], arrival{now(self), self, p.From, p.Msg.ID, p.Msg.Type})
			if p.Msg.Type != wire.TypeData {
				return
			}
			switch (uint64(self)*31 + p.Msg.ID.Seq) % 4 {
			case 0:
				send(self, topo.Members(topo.RegionOf(self)),
					wire.Message{Type: wire.TypeRepair, From: self, ID: p.Msg.ID, Payload: p.Msg.Payload})
			case 1:
				net.Unicast(self, p.From, wire.Message{Type: wire.TypeRemoteRequest, From: self, ID: p.Msg.ID})
			}
		}))
	}
	for i, op := range ops {
		op, seq := op, uint64(i+1)
		at(op.at, func() {
			switch op.kind {
			case opSend:
				send(op.node, diffTargets(topo, op.node, op.arg), wire.Message{Type: wire.TypeData, From: op.node,
					ID: wire.MessageID{Source: op.node, Seq: seq}, Payload: make([]byte, op.arg%64)})
			case opDown:
				net.SetDown(op.node, true)
			case opUp:
				net.SetDown(op.node, false)
			case opPartition:
				class := map[topology.NodeID]int{}
				for _, m := range topo.Members(topo.RegionOf(op.node)) {
					class[m] = 1 + op.arg%2
				}
				net.SetPartition(class)
			case opHeal:
				net.ClearPartition()
			}
		})
	}
	run(-1)
	return logs, *net.Stats()
}

// receiverFunc is a PacketReceiver that sees the borrowed packet itself,
// unlike a Handler, which gets a copy.
type receiverFunc func(*Packet)

func (f receiverFunc) ReceivePacket(p *Packet) { f(p) }

// checkDifferential runs ops both ways and reports the first divergence.
func checkDifferential(t testing.TB, topo *topology.Topology, width int, loss func() LossModel, ops []diffOp) {
	t.Helper()
	mlogs, mstats := runScript(t, topo, width, loss(), ops, true)
	ulogs, ustats := runScript(t, topo, width, loss(), ops, false)
	for lane := range mlogs {
		m, u := mlogs[lane], ulogs[lane]
		for i := 0; i < len(m) && i < len(u); i++ {
			if m[i] != u[i] {
				t.Fatalf("width %d shard %d arrival %d: multicast %+v, unicast loop %+v", width, lane, i, m[i], u[i])
			}
		}
		if len(m) != len(u) {
			t.Fatalf("width %d shard %d: multicast delivered %d packets, unicast loop %d", width, lane, len(m), len(u))
		}
	}
	if !reflect.DeepEqual(mstats, ustats) {
		t.Fatalf("width %d: counters differ:\nmulticast    %+v\nunicast loop %+v", width, mstats, ustats)
	}
}

// TestMulticastMatchesUnicastLoop holds Multicast to a loop of Unicast on
// a tree under HierLatency, with the counter-hash model and with fresh
// same-seed Bernoulli streams, through a crash and a partition that land
// mid-flight.
func TestMulticastMatchesUnicastLoop(t *testing.T) {
	topo := diffTopo(t, 70)
	sender, leaf := topo.Sender(), topo.MemberAt(topology.RegionID(topo.NumRegions()-1), 2)
	ops := []diffOp{
		{at: 0, kind: opSend, node: sender, arg: 0},
		{at: 1 * time.Millisecond, kind: opSend, node: leaf, arg: 2},
		{at: 2 * time.Millisecond, kind: opSend, node: topo.MemberAt(3, 1), arg: 4},
		// Cut while the first fan-outs are in flight.
		{at: 30 * time.Millisecond, kind: opDown, node: topo.MemberAt(2, 0)},
		{at: 40 * time.Millisecond, kind: opPartition, node: topo.MemberAt(4, 0), arg: 0},
		{at: 60 * time.Millisecond, kind: opSend, node: sender, arg: 5},
		{at: 120 * time.Millisecond, kind: opHeal},
		{at: 130 * time.Millisecond, kind: opUp, node: topo.MemberAt(2, 0)},
		{at: 140 * time.Millisecond, kind: opSend, node: sender, arg: 3},
		{at: 141 * time.Millisecond, kind: opSend, node: leaf, arg: 0},
	}
	losses := map[string]func() LossModel{
		"hash":      func() LossModel { return NewHashLoss(7, 0.2, topo.NumNodes(), nil) },
		"bernoulli": func() LossModel { return &BernoulliLoss{P: 0.2, Rng: rng.New(7)} },
	}
	for name, loss := range losses {
		for _, width := range allocWidths {
			if width > 1 && !ShardSafe(loss()) {
				continue // a shared stream runs on one loop only
			}
			t.Run(fmt.Sprintf("%s/width%d", name, width), func(t *testing.T) {
				checkDifferential(t, topo, width, loss, ops)
			})
		}
	}
}

// FuzzMulticastDifferential runs the same comparison over byte-decoded
// scripts: four bytes per operation (kind, instant, node, argument) and
// the first byte choosing the width and the hash-loss seed.
func FuzzMulticastDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 10, 2, 1, 20, 3, 1, 3, 5, 4, 4, 60, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 3, 0, 2, 30, 7, 0, 1, 20, 9, 2, 0, 1, 0, 4, 8, 0, 0})
	f.Add([]byte{5, 0, 0, 40, 5, 3, 1, 40, 1, 0, 2, 41, 1, 2})
	topo := diffTopo(f, 42)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		width := allocWidths[int(data[0])%len(allocWidths)]
		seed := uint64(data[0])
		var ops []diffOp
		for b := data[1:]; len(b) >= 4 && len(ops) < 24; b = b[4:] {
			ops = append(ops, diffOp{
				kind: int(b[0]) % opKinds,
				at:   time.Duration(b[1]) * time.Millisecond,
				node: topology.NodeID(int(b[2]) % topo.NumNodes()),
				arg:  int(b[3]),
			})
		}
		loss := func() LossModel { return NewHashLoss(seed, 0.15, topo.NumNodes(), nil) }
		checkDifferential(t, topo, width, loss, ops)
	})
}

// cyclicLatency delays a packet to node n by (n mod classes) + 1 ms: more
// arrival classes than a send keeps open, interleaved in target order.
type cyclicLatency int

func (c cyclicLatency) OneWay(_, to topology.NodeID) time.Duration {
	return time.Duration(int(to)%int(c)+1) * time.Millisecond
}

// TestMulticastPastMaxOpen holds the differential when a fan-out has more
// arrival classes than the send keeps open for joining.
func TestMulticastPastMaxOpen(t *testing.T) {
	const classes, members = 2 * maxOpen, 6 * maxOpen
	all := make([]topology.NodeID, members)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	run := func(fanout bool) []arrival {
		s := sim.New()
		n := New(s, cyclicLatency(classes), nil)
		var log []arrival
		for _, id := range all {
			n.Register(id, func(p Packet) { log = append(log, arrival{s.Now(), id, p.From, p.Msg.ID, p.Msg.Type}) })
		}
		msg := wire.Message{Type: wire.TypeData, ID: wire.MessageID{Seq: 1}}
		if fanout {
			n.Multicast(0, all, msg)
		} else {
			for _, to := range all[1:] {
				n.Unicast(0, to, msg)
			}
		}
		s.RunUntil(-1)
		return log
	}
	if m, u := run(true), run(false); !reflect.DeepEqual(m, u) || len(m) != members-1 {
		t.Fatalf("multicast delivered %d packets, unicast loop %d, or in another order", len(m), len(u))
	}
}

// postCount counts what a router is asked to queue: events and firings.
type postCount struct{ events, fires atomic.Int64 }

func (c *postCount) add(n int) {
	c.events.Add(1)
	c.fires.Add(int64(n))
}

// countingSim and countingSharded are the engines' routers, counted.
type countingSim struct {
	*sim.Sim
	c *postCount
}

func (s countingSim) PostN(from, to int32, d time.Duration, n int, f clock.Firer) {
	s.c.add(n)
	s.Sim.PostN(from, to, d, n, f)
}

type countingSharded struct {
	*sim.Sharded
	c *postCount
}

func (e countingSharded) PostN(from, to int32, d time.Duration, n int, f clock.Firer) {
	e.c.add(n)
	e.Sharded.PostN(from, to, d, n, f)
}

// TestMulticastIsOneRecordPerArrival pins the record count: a 10 000-member
// fan-out takes at most one record per (arrival instant, receiving shard)
// from the pools, not one per target, and queues one event per record
// that fires once per target: the engine processes one event per delivery
// (and one for the send itself).
func TestMulticastIsOneRecordPerArrival(t *testing.T) {
	topo, err := topology.BalancedTree(4, 4, 10000)
	if err != nil {
		t.Fatal(err)
	}
	lat := HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	from := topo.Sender()
	all := make([]topology.NodeID, topo.NumNodes())
	instants := map[time.Duration]bool{}
	for i := range all {
		all[i] = topology.NodeID(i)
		if all[i] != from {
			instants[lat.OneWay(from, all[i])] = true
		}
	}
	for _, width := range allocWidths {
		// Send from the sender's own event-loop context, as allocNet does.
		var net *Network
		var post func(func())
		var run func(deadline time.Duration) uint64
		var processed func() uint64
		var posts postCount
		if width == 0 {
			s := sim.New()
			net, run, processed = New(countingSim{s, &posts}, lat, nil), s.RunUntil, s.Processed
			post = func(fn func()) { s.Post(0, fn) }
		} else {
			shardOf, _ := topo.NodeShards(width)
			e, err := sim.NewSharded(width, shardOf, lat.InterOneWay)
			if err != nil {
				t.Fatal(err)
			}
			net, run, processed = New(e, lat, nil), e.RunUntil, e.Processed
			net.EnableSharding(countingSharded{e, &posts}, shardOf, width)
			e.RunUntil(0)
			post = func(fn func()) { e.PostFrom(int32(from), int32(from), 0, fn) }
		}
		// One slot per receiver: the lanes deliver concurrently.
		hits := make([]int, len(all))
		for _, n := range all {
			net.Register(n, func(Packet) { hits[n]++ })
		}
		msg := wire.Message{Type: wire.TypeData, From: from,
			ID: wire.MessageID{Source: from, Seq: 1}, Payload: make([]byte, 256)}
		before := processed()
		post(func() { net.Multicast(from, all, msg) })
		run(-1)
		got := 0
		for _, h := range hits {
			got += h
		}
		if got != len(all)-1 {
			t.Fatalf("width %d: %d of %d targets received the multicast", width, got, len(all)-1)
		}
		// The pools started empty and every record has come home, so the
		// pooled and returned records are all the records the fan-out took.
		records := 0
		for i := range net.shards {
			records += len(net.shards[i].pool) + len(net.shards[i].returned)
		}
		if bound := len(instants) * len(net.shards); records == 0 || records > bound {
			t.Fatalf("width %d: the fan-out took %d records, want 1..%d (%d arrival instants × %d shards)",
				width, records, bound, len(instants), len(net.shards))
		}
		if events, fires := posts.events.Load(), posts.fires.Load(); events != int64(records) || fires != int64(got) {
			t.Fatalf("width %d: the fan-out queued %d events of %d firings, want one per record (%d) and one firing per delivery (%d)",
				width, events, fires, records, got)
		}
		if n := processed() - before; n != uint64(got)+1 {
			t.Fatalf("width %d: the engine processed %d events, want the send and its %d deliveries", width, n, got)
		}
	}
}

// TestBorrowedPacketIsZeroedOnRecycle pins the borrow rule: every target
// of one arrival instant is lent the same *Packet, and a receiver that
// keeps it past its callback finds it zeroed once the last target has
// received it and the record has gone back to the pool.
func TestBorrowedPacketIsZeroedOnRecycle(t *testing.T) {
	s := sim.New()
	n := New(s, UniformLatency{Delay: time.Millisecond}, nil)
	var kept []*Packet
	for id := topology.NodeID(1); id <= 3; id++ {
		n.RegisterReceiver(id, receiverFunc(func(p *Packet) {
			if p.From != 0 || len(p.Msg.Payload) != 8 {
				t.Errorf("node %d received %+v", id, *p)
			}
			kept = append(kept, p)
		}))
	}
	n.Multicast(0, []topology.NodeID{0, 1, 2, 3}, wire.Message{Type: wire.TypeData, Payload: make([]byte, 8)})
	s.RunUntil(-1)
	if len(kept) != 3 || kept[0] != kept[1] || kept[1] != kept[2] {
		t.Fatalf("kept %v: want one packet lent to all three targets", kept)
	}
	if !reflect.DeepEqual(*kept[0], Packet{}) {
		t.Fatalf("kept packet after recycle = %+v, want zeroed", *kept[0])
	}
}
