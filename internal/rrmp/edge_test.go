package rrmp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestSenderSequencesAndSessions(t *testing.T) {
	topo := singleRegion(t, 5)
	c := newCluster(t, topo, DefaultParams(), 20, nil)
	id1 := c.sender.Publish([]byte("a"))
	id2 := c.sender.Publish([]byte("b"))
	if id1.Seq != 1 || id2.Seq != 2 {
		t.Fatalf("sequence numbers %d, %d", id1.Seq, id2.Seq)
	}
	if c.sender.Seq() != 2 {
		t.Fatalf("Seq() = %d", c.sender.Seq())
	}
	if id1.Source != topo.Sender() {
		t.Fatalf("source %d", id1.Source)
	}
	// Sessions tick periodically and stop cleanly.
	c.sender.StartSessions()
	c.sender.StartSessions() // idempotent
	c.sim.RunUntil(450 * time.Millisecond)
	c.sender.StopSessions()
	c.sender.StopSessions() // idempotent
	sent := c.net.Stats().SentCount(wire.TypeSession)
	if sent == 0 {
		t.Fatal("no session messages sent")
	}
	c.sim.RunUntil(2 * time.Second)
	if got := c.net.Stats().SentCount(wire.TypeSession); got != sent {
		t.Fatalf("sessions continued after stop: %d -> %d", sent, got)
	}
	// The sender buffers its own messages (it is also a receiver, §2.1).
	if c.members[topo.Sender()].Metrics().Delivered.Value() != 2 {
		t.Fatal("sender did not deliver to itself")
	}
}

func TestLateJoinerBaseline(t *testing.T) {
	// A member that joins after 10 messages must not try to recover
	// history before its StartSeq baseline.
	topo := singleRegion(t, 6)
	c := newCluster(t, topo, DefaultParams(), 21, nil)
	for i := 0; i < 10; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	c.sim.RunUntil(500 * time.Millisecond)

	// "Join": rebuild member 5 with a baseline at the current top.
	params := DefaultParams()
	params.StartSeq = c.sender.Seq()
	view, err := topo.ViewOf(5)
	if err != nil {
		t.Fatal(err)
	}
	joiner := NewMember(Config{
		View:      view,
		Transport: &NetTransport{Net: c.net, Self: 5, Group: c.all},
		Sched:     c.sim,
		Rng:       c.members[5].cfg.Rng,
		Params:    params,
	})
	c.members[5] = joiner
	c.net.Register(5, func(p netsim.Packet) { joiner.Receive(p.From, p.Msg) })

	id11 := c.sender.Publish([]byte("post-join"))
	c.sim.RunUntil(2 * time.Second)

	if !joiner.HasReceived(id11) {
		t.Fatal("joiner missed a post-join message")
	}
	if joiner.Metrics().LocalReqSent.Value() != 0 {
		t.Fatal("joiner tried to recover pre-join history")
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if recovering(joiner, wire.MessageID{Source: topo.Sender(), Seq: seq}) {
			t.Fatalf("joiner recovering pre-baseline seq %d", seq)
		}
	}
}

func TestMulticastQueryModeEndToEnd(t *testing.T) {
	topo := chainRegions(t, 30, 1)
	params := DefaultParams()
	params.SearchMode = SearchMulticastQuery
	params.LongTermTTL = 0
	c := newCluster(t, topo, params, 22, nil)

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	for i, n := range region {
		if i < 5 {
			c.members[n].InjectLongTerm(id, []byte("q"))
		} else {
			c.members[n].InjectDiscarded(id)
		}
	}
	requester := topo.MemberAt(1, 0)
	target := region[10] // a discarded member
	c.net.Unicast(requester, target, wire.Message{
		Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
	})
	c.sim.RunUntil(5 * time.Second)

	if !c.members[requester].HasReceived(id) {
		t.Fatal("multicast-query search failed to repair the requester")
	}
	var queries, replies int64
	for _, n := range region {
		queries += c.members[n].Metrics().QueriesSent.Value()
		replies += c.members[n].Metrics().QueryReplies.Value()
	}
	if queries == 0 {
		t.Fatal("no multicast queries sent")
	}
	if replies == 0 {
		t.Fatal("no query replies sent")
	}
}

func TestLeaveIsIdempotentAndSoleMemberSafe(t *testing.T) {
	topo := singleRegion(t, 1)
	c := newCluster(t, topo, DefaultParams(), 23, nil)
	m := c.members[0]
	m.InjectLongTerm(wire.MessageID{Source: 0, Seq: 1}, []byte("x"))
	m.Leave() // no peers: must not panic, entries simply dropped
	m.Leave() // idempotent
	if !m.Left() {
		t.Fatal("not left")
	}
	if m.Metrics().HandoffsSent.Value() != 0 {
		t.Fatal("sole member handed off to nobody?")
	}
}

func TestHandoffToCrashedPeerIsLost(t *testing.T) {
	// §3.2's transfer goes to a random peer; if that peer is dead the copy
	// is lost — the protocol's probabilistic guarantee, made visible.
	topo := singleRegion(t, 2)
	c := newCluster(t, topo, DefaultParams(), 24, nil)
	id := wire.MessageID{Source: 0, Seq: 1}
	c.members[0].InjectLongTerm(id, []byte("x"))
	c.net.SetDown(1, true)
	c.members[0].Leave()
	c.sim.RunUntil(time.Second)
	if c.members[1].Buffer().Has(id) {
		t.Fatal("crashed peer holds the handoff")
	}
	// The handoff was sent (and dropped by the network).
	if c.members[0].Metrics().HandoffsSent.Value() != 1 {
		t.Fatal("handoff not attempted")
	}
	if c.net.Stats().DroppedCount(wire.TypeHandoff) != 1 {
		t.Fatal("drop not accounted")
	}
}

func TestDuplicateRemoteRequestsMergeOrigins(t *testing.T) {
	topo := chainRegions(t, 10, 2)
	params := DefaultParams()
	params.LongTermTTL = 0
	c := newCluster(t, topo, params, 25, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	for i, n := range region {
		if i == 7 {
			c.members[n].InjectLongTerm(id, []byte("m"))
		} else {
			c.members[n].InjectDiscarded(id)
		}
	}
	// Two distinct downstream requesters hit the same discarded member.
	r1, r2 := topo.MemberAt(1, 0), topo.MemberAt(1, 1)
	target := region[0]
	for _, r := range []topology.NodeID{r1, r2} {
		c.net.Unicast(r, target, wire.Message{
			Type: wire.TypeRemoteRequest, From: r, ID: id, Origin: r,
		})
	}
	c.sim.RunUntil(5 * time.Second)
	if !c.members[r1].HasReceived(id) || !c.members[r2].HasReceived(id) {
		t.Fatal("merged search did not repair both requesters")
	}
	// Each requester is repaired without implosion: the serve-side dedupe
	// bounds repairs per origin to ~1 within the search window.
	for _, r := range []topology.NodeID{r1, r2} {
		if got := c.members[r].Metrics().RepairsRecv.Value(); got < 1 || got > 2 {
			t.Fatalf("requester %d received %d repairs, want 1..2", r, got)
		}
	}
}

func TestSearchFailureWhenNothingBuffered(t *testing.T) {
	topo := chainRegions(t, 5, 1)
	params := DefaultParams()
	params.MaxSearchTries = 4
	c := newCluster(t, topo, params, 26, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	for _, n := range topo.Members(0) {
		c.members[n].InjectDiscarded(id) // discarded EVERYWHERE
	}
	requester := topo.MemberAt(1, 0)
	c.net.Unicast(requester, topo.MemberAt(0, 2), wire.Message{
		Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
	})
	c.sim.MustQuiesce(1_000_000)
	if c.members[requester].HasReceived(id) {
		t.Fatal("requester received a message nobody buffered")
	}
	var failures int64
	for _, n := range topo.Members(0) {
		failures += c.members[n].Metrics().SearchFailures.Value()
	}
	if failures == 0 {
		t.Fatal("exhausted searches not counted as failures")
	}
}

func TestPrefixAndMaxSeen(t *testing.T) {
	topo := singleRegion(t, 3)
	c := newCluster(t, topo, DefaultParams(), 27, nil)
	m := c.members[1]
	src := topo.Sender()
	if m.Prefix(src) != 0 || m.MaxSeen(src) != 0 {
		t.Fatal("fresh member has nonzero progress")
	}
	m.InjectDeliver(wire.MessageID{Source: src, Seq: 1}, nil)
	m.InjectDeliver(wire.MessageID{Source: src, Seq: 2}, nil)
	m.InjectDeliver(wire.MessageID{Source: src, Seq: 5}, nil)
	if got := m.Prefix(src); got != 2 {
		t.Fatalf("prefix = %d, want 2 (gap at 3)", got)
	}
	if got := m.MaxSeen(src); got != 5 {
		t.Fatalf("maxSeen = %d", got)
	}
	m.InjectDeliver(wire.MessageID{Source: src, Seq: 3}, nil)
	m.InjectDeliver(wire.MessageID{Source: src, Seq: 4}, nil)
	if got := m.Prefix(src); got != 5 {
		t.Fatalf("prefix = %d after filling the gap", got)
	}
}

func TestRegionalMulticastSkippedForSoleMember(t *testing.T) {
	// A single-member region receiving a remote repair has nobody to
	// re-multicast to; must not count a regional multicast.
	topo := chainRegions(t, 2, 1)
	c := newCluster(t, topo, DefaultParams(), 28, nil)
	leaf := topo.MemberAt(1, 0)
	parent := topo.MemberAt(0, 0)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	c.net.Unicast(parent, leaf, wire.Message{Type: wire.TypeRepair, From: parent, ID: id, Payload: []byte("r")})
	c.sim.RunUntil(time.Second)
	if !c.members[leaf].HasReceived(id) {
		t.Fatal("leaf did not deliver the repair")
	}
	if c.members[leaf].Metrics().RegionalMulticasts.Value() != 0 {
		t.Fatal("sole region member counted a regional multicast")
	}
}

func TestBufferingTimeExcludesHandoff(t *testing.T) {
	topo := singleRegion(t, 4)
	c := newCluster(t, topo, DefaultParams(), 29, nil)
	m := c.members[1]
	m.InjectLongTerm(wire.MessageID{Source: 0, Seq: 1}, nil)
	c.sim.RunUntil(100 * time.Millisecond)
	m.Leave()
	if got := m.Metrics().BufferingTime.N(); got != 0 {
		t.Fatalf("handoff recorded %d buffering-time samples", got)
	}
}

func TestPolicyOverrideViaConfig(t *testing.T) {
	topo := singleRegion(t, 4)
	view, err := topo.ViewOf(1)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, topo, DefaultParams(), 30, nil)
	m := NewMember(Config{
		View:      view,
		Transport: &NetTransport{Net: c.net, Self: 1, Group: c.all},
		Sched:     c.sim,
		Rng:       c.members[1].cfg.Rng.Split(99),
		Policy:    core.BufferAll{},
	})
	id := wire.MessageID{Source: 0, Seq: 1}
	m.InjectDeliver(id, nil)
	c.sim.RunUntil(time.Hour)
	if !m.Buffer().Has(id) {
		t.Fatal("buffer-all override evicted")
	}
}
