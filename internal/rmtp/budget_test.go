package rmtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
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
		c := newTreeCluster(t, topo, 21, nil, func(topology.NodeID) Params { return Params{CopyOnStore: copyOn} })
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
	victim := topo.MemberAt(1, 2)
	leafServer := topo.MemberAt(1, 0)
	// Only the leaf server is budgeted: the root keeps everything and can
	// answer refetches.
	c := newTreeCluster(t, topo, 31, &victimLoss{victim: victim}, func(node topology.NodeID) Params {
		if node == leafServer {
			return Params{ByteBudget: 2 * 512} // room for two of five payloads
		}
		return Params{}
	})
	s, nodes, sender := c.sim, c.nodes, c.sender

	// Publish five 512 B messages back to back; the leaf server keeps only
	// the newest two. No sessions yet, so the victim stays ignorant.
	for i := 0; i < 5; i++ {
		sender.Publish(make([]byte, 512))
	}
	s.RunUntil(time.Second)
	if got := nodes[leafServer].Buffer().EvictedCount(core.EvictPressure); got != 3 {
		t.Fatalf("leaf server pressure-evicted %d entries, want 3", got)
	}
	if !nodes[leafServer].HasReceived(1) || nodes[leafServer].Buffer().Has(wire.MessageID{Source: topo.Sender(), Seq: 1}) {
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
	if nodes[leafServer].Metrics().NaksSent.Value() == 0 {
		t.Fatal("leaf server never escalated a refetch to the root server")
	}
	if got := nodes[victim].Unrecoverable(); got != 0 {
		t.Fatalf("victim counted %d unrecoverable on a recoverable budget miss", got)
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
	victim := topo.MemberAt(1, 2)
	leafServer := topo.MemberAt(1, 0)
	c := newTreeCluster(t, topo, 41, &victimLoss{victim: victim}, func(node topology.NodeID) Params {
		params := Params{MaxTries: 4} // exhaust fast so the outage outlives the loop
		if node == leafServer {
			params.ByteBudget = 2 * 512
		}
		return params
	})
	s, net, nodes, sender := c.sim, c.net, c.nodes, c.sender
	rootServer := nodes[topo.Sender()]

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
		nodes[victim].receive(leafServer, &wire.Message{Type: wire.TypeSession, From: topo.Sender(), TopSeq: 5})
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
	if got := nodes[victim].Unrecoverable(); got != 0 {
		t.Fatalf("victim still counts %d unrecoverable after full recovery", got)
	}
}
