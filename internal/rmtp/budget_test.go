package rmtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestCopyOnStorePinsServerPayloadImmutability pins the payload-aliasing
// invariant on the baseline's side (the same property test the RRMP
// cluster has in internal/rrmp/budget_test.go): the sender broadcasts one
// payload slice that the repair server's buffer entry aliases, so an
// application reusing its publish buffer would corrupt the only repair
// copy in the region — unless Params.CopyOnStore snapshots the bytes at
// store time. Both sides of the knob are asserted, so the zero-copy
// default's hazard stays documented by a failing test.
func TestCopyOnStorePinsServerPayloadImmutability(t *testing.T) {
	for _, copyOn := range []bool{true, false} {
		topo, err := topology.SingleRegion(5)
		if err != nil {
			t.Fatal(err)
		}
		c := newTreeCluster(t, topo, Params{CopyOnStore: copyOn}, 21, nil)
		// No ACK loops: nothing trims, so every entry survives for the
		// post-run check.
		var published [][]byte
		var ids []wire.MessageID
		for i := 0; i < 4; i++ {
			i := i
			c.sim.At(time.Duration(i)*10*time.Millisecond, func() {
				payload := bytes.Repeat([]byte{byte(i + 1)}, 32)
				published = append(published, payload)
				ids = append(ids, c.sender.Publish(payload))
			})
		}
		c.sim.RunUntil(500 * time.Millisecond)

		// The application "reuses" its buffers after the run quiesces.
		for _, p := range published {
			for j := range p {
				p[j] = 0xee
			}
		}
		server := c.nodes[topo.MemberAt(0, 0)]
		for i, id := range ids {
			e, ok := server.Buffer().Get(id)
			if !ok {
				t.Fatalf("copy=%v: server no longer buffers %v", copyOn, id)
			}
			want := byte(i + 1)
			if !copyOn {
				want = 0xee // zero-copy entries alias the mutated slice
			}
			if e.Payload[0] != want {
				t.Fatalf("copy=%v: server entry %v holds %#x, want %#x",
					copyOn, id, e.Payload[0], want)
			}
		}
	}
}

// TestBudgetedServerRefetchesDisplacedEntry exercises the byte-budget path
// end to end: a leaf repair server whose budget holds only two payloads
// displaces the oldest message under pressure; when a straggler then NAKs
// for the displaced sequence, the server must re-fetch it from its parent
// server and serve the waiter — a budget may cost an extra round trip,
// never the message.
func TestBudgetedServerRefetchesDisplacedEntry(t *testing.T) {
	topo, err := topology.Chain(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	lat := netsim.HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	victim := topo.MemberAt(1, 2)
	net := netsim.New(s, lat, &victimLoss{victim: victim})
	root := rng.New(31)

	// Hand-built cluster so only the leaf server is budgeted: the root
	// keeps everything and can answer refetches.
	serverOf := func(r topology.RegionID) topology.NodeID { return topo.MemberAt(r, 0) }
	nodes := make(map[topology.NodeID]*Node)
	var all []topology.NodeID
	for r := 0; r < topo.NumRegions(); r++ {
		rid := topology.RegionID(r)
		parentServer := topology.NoNode
		if p := topo.Parent(rid); p != topology.NoRegion {
			parentServer = serverOf(p)
		}
		var childServers []topology.NodeID
		if rid == 0 {
			childServers = []topology.NodeID{serverOf(1)}
		}
		for _, node := range topo.Members(rid) {
			node := node
			var params Params
			if node == serverOf(1) {
				params.ByteBudget = 2 * 512 // room for two of five payloads
			}
			n := New(Config{
				Self:          node,
				Server:        serverOf(rid),
				ParentServer:  parentServer,
				RegionMembers: topo.Members(rid),
				ChildServers:  childServers,
				Send:          func(to topology.NodeID, msg wire.Message) { net.Unicast(node, to, msg) },
				Sched:         s,
				Rng:           root.Split(uint64(node) + 1),
				Params:        params,
			})
			nodes[node] = n
			all = append(all, node)
			net.Register(node, func(p netsim.Packet) { n.Receive(p.From, p.Msg) })
		}
	}
	sender := NewSender(nodes[serverOf(0)], func(msg wire.Message) { net.Multicast(topo.Sender(), all, msg) })

	// Publish five 512 B messages back to back; the leaf server keeps only
	// the newest two. No sessions yet, so the victim stays ignorant.
	for i := 0; i < 5; i++ {
		sender.Publish(make([]byte, 512))
	}
	s.RunUntil(time.Second)
	leafServer := nodes[serverOf(1)]
	if got := leafServer.Buffer().EvictedCount(core.EvictPressure); got != 3 {
		t.Fatalf("leaf server pressure-evicted %d entries, want 3", got)
	}
	if !leafServer.HasReceived(1) || leafServer.Buffer().Has(wire.MessageID{Source: topo.Sender(), Seq: 1}) {
		t.Fatal("setup: seq 1 should be received-but-displaced at the leaf server")
	}

	// The straggler now learns about the stream and NAKs its server.
	sender.StartSessions()
	s.RunUntil(3 * time.Second)
	for seq := uint64(1); seq <= 5; seq++ {
		if !nodes[victim].HasReceived(seq) {
			t.Fatalf("victim still missing seq %d: displaced entry was not re-fetched", seq)
		}
	}
	if leafServer.Metrics().NaksSent.Value() == 0 {
		t.Fatal("leaf server never escalated a refetch to the root server")
	}
	if got := nodes[victim].Metrics().Unrecoverable.Value(); got != 0 {
		t.Fatalf("victim counted %d unrecoverable losses on a recoverable budget miss", got)
	}
}

// TestRefetchReArmsAfterExhaustion pins the budget × fault interaction: a
// refetch loop that exhausts its retry budget while the parent server is
// down dies, but the waiter record survives — so the waiter's next NAK
// must re-arm the refetch once the parent is back, not fall into the
// duplicate-waiter early return forever. Without the re-arm, a message
// the root still buffers would stay permanently lost to the receiver.
func TestRefetchReArmsAfterExhaustion(t *testing.T) {
	topo, err := topology.Chain(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	lat := netsim.HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	victim := topo.MemberAt(1, 2)
	net := netsim.New(s, lat, &victimLoss{victim: victim})
	root := rng.New(41)

	serverOf := func(r topology.RegionID) topology.NodeID { return topo.MemberAt(r, 0) }
	nodes := make(map[topology.NodeID]*Node)
	var all []topology.NodeID
	for r := 0; r < topo.NumRegions(); r++ {
		rid := topology.RegionID(r)
		parentServer := topology.NoNode
		if p := topo.Parent(rid); p != topology.NoRegion {
			parentServer = serverOf(p)
		}
		var childServers []topology.NodeID
		if rid == 0 {
			childServers = []topology.NodeID{serverOf(1)}
		}
		for _, node := range topo.Members(rid) {
			node := node
			params := Params{MaxTries: 4} // exhaust fast so the outage outlives the loop
			if node == serverOf(1) {
				params.ByteBudget = 2 * 512
			}
			n := New(Config{
				Self:          node,
				Server:        serverOf(rid),
				ParentServer:  parentServer,
				RegionMembers: topo.Members(rid),
				ChildServers:  childServers,
				Send:          func(to topology.NodeID, msg wire.Message) { net.Unicast(node, to, msg) },
				Sched:         s,
				Rng:           root.Split(uint64(node) + 1),
				Params:        params,
			})
			nodes[node] = n
			all = append(all, node)
			net.Register(node, func(p netsim.Packet) { n.Receive(p.From, p.Msg) })
		}
	}
	rootServer := nodes[serverOf(0)]
	sender := NewSender(rootServer, func(msg wire.Message) { net.Multicast(topo.Sender(), all, msg) })

	// Displace seq 1 at the leaf server, then take the root down before
	// the straggler's NAKs can be escalated successfully.
	for i := 0; i < 5; i++ {
		sender.Publish(make([]byte, 512))
	}
	s.RunUntil(200 * time.Millisecond)
	s.At(200*time.Millisecond, func() {
		rootServer.Crash()
		net.SetDown(topo.Sender(), true)
	})
	// The straggler learns of the stream from a hand-delivered session
	// (the crashed sender is silent) and NAKs into the outage: the leaf
	// server's refetch loop exhausts against the dead root.
	s.At(210*time.Millisecond, func() {
		nodes[victim].Receive(serverOf(1), wire.Message{Type: wire.TypeSession, From: topo.Sender(), TopSeq: 5})
	})
	s.RunUntil(2 * time.Second)
	if nodes[victim].HasReceived(1) {
		t.Fatal("setup: victim recovered seq 1 through a dead root")
	}
	// Root comes back and resumes sessions; the victim's session-driven
	// retries must re-arm the leaf server's dead refetch loop.
	s.At(2*time.Second, func() {
		net.SetDown(topo.Sender(), false)
		rootServer.Recover()
		sender.StartSessions()
	})
	s.RunUntil(10 * time.Second)
	for seq := uint64(1); seq <= 5; seq++ {
		if !nodes[victim].HasReceived(seq) {
			t.Fatalf("victim still missing seq %d after the root recovered", seq)
		}
	}
	if got := nodes[victim].Metrics().Unrecoverable.Value(); got != 0 {
		t.Fatalf("victim still counts %d unrecoverable after full recovery", got)
	}
}
