package rrmp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// crashNode fails a member the way the runner does: the member halts and
// its network traffic is cut.
func (c *cluster) crashNode(n topology.NodeID) {
	c.members[n].Crash()
	c.net.SetDown(n, true)
}

func (c *cluster) recoverNode(n topology.NodeID) {
	c.net.SetDown(n, false)
	c.members[n].Recover()
}

// TestFailureDetectorSuspectsCrashedPeer: with FDEnabled, every surviving
// region member suspects a crashed peer within a few gossip timeouts.
func TestFailureDetectorSuspectsCrashedPeer(t *testing.T) {
	topo, err := topology.SingleRegion(6)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FDEnabled = true
	c := newCluster(t, topo, params, 11, nil)

	victim := topology.NodeID(3)
	c.sim.At(100*time.Millisecond, func() { c.crashNode(victim) })
	c.sim.RunUntil(2 * time.Second)

	if !c.members[victim].Crashed() {
		t.Fatal("victim not marked crashed")
	}
	for _, n := range c.all {
		if n == victim {
			continue
		}
		m := c.members[n]
		if m.peerLive(victim) {
			t.Fatalf("member %d still considers crashed %d live", n, victim)
		}
		if m.coldState().faults.Suspects.Value() == 0 {
			t.Fatalf("member %d recorded no suspect events", n)
		}
		// No false positives: all other peers stayed live.
		for _, p := range c.all {
			if p != victim && p != n && !m.peerLive(p) {
				t.Fatalf("member %d falsely suspects healthy %d", n, p)
			}
		}
	}
}

// TestSearchReroutesAroundCrashedBufferer: two long-term bufferers, one
// crashes; the search walk must skip the suspected corpse and resolve the
// remote request from the survivor.
func TestSearchReroutesAroundCrashedBufferer(t *testing.T) {
	topo, err := topology.Chain(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FDEnabled = true
	params.LongTermTTL = 0
	c := newCluster(t, topo, params, 7, nil)

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	deadBufferer, liveBufferer := region[2], region[5]
	for _, n := range region {
		switch n {
		case deadBufferer, liveBufferer:
			c.members[n].InjectLongTerm(id, []byte("p"))
		default:
			c.members[n].InjectDiscarded(id)
		}
	}
	// Let gossip converge on the crash before the request arrives.
	c.sim.At(50*time.Millisecond, func() { c.crashNode(deadBufferer) })

	requester := topo.MemberAt(1, 0)
	c.sim.At(1500*time.Millisecond, func() {
		c.net.Unicast(requester, region[0], wire.Message{
			Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
		})
	})
	c.sim.RunUntil(20 * time.Second)

	if !c.members[requester].HasReceived(id) {
		t.Fatal("remote requester never repaired despite a surviving bufferer")
	}
}

// TestCrashRecoverReRecoversKnownGaps: a member crashes with a detected
// loss in flight; on Recover the gap is re-detected and repaired, and the
// episode lands in ReRecoveryLatency.
func TestCrashRecoverReRecoversKnownGaps(t *testing.T) {
	topo, err := topology.SingleRegion(8)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FDEnabled = true
	params.C = 8
	params.LongTermTTL = 0
	c := newCluster(t, topo, params, 21, nil)

	id := wire.MessageID{Source: topo.Sender(), Seq: 2}
	victim := topology.NodeID(4)
	for _, n := range c.all {
		if n != victim {
			c.members[n].InjectLongTerm(id, []byte("p"))
		}
	}
	// The victim holds seq 1, so the only gap the session reveals is seq 2.
	c.members[victim].InjectDeliver(wire.MessageID{Source: topo.Sender(), Seq: 1}, []byte("q"))
	// The victim detects the loss through a session announcement (so its
	// maxSeen covers the gap), then dies before recovery completes.
	c.sim.At(0, func() {
		c.members[victim].Receive(topo.Sender(),
			wire.Message{Type: wire.TypeSession, From: topo.Sender(), TopSeq: 2})
		if !recovering(c.members[victim], id) {
			t.Error("victim did not start recovery from the session gap")
		}
		c.crashNode(victim)
	})
	c.sim.At(time.Second, func() { c.recoverNode(victim) })
	c.sim.RunUntil(5 * time.Second)

	m := c.members[victim]
	if !m.HasReceived(id) {
		t.Fatal("victim never re-recovered the gap it knew about")
	}
	if m.coldState().faults.ReRecoveryLatency.N() != 1 {
		t.Fatalf("ReRecoveryLatency.N() = %d, want 1", m.coldState().faults.ReRecoveryLatency.N())
	}
	if len(slices.Collect(m.Unrecovered)) != 0 {
		t.Fatal("recovered message still counted unrecoverable")
	}
}

// TestLeaveHandsOffToLivePeersOnly: with the detector on, a leaver must
// not transfer its long-term buffer to a peer it believes is dead.
func TestLeaveHandsOffToLivePeersOnly(t *testing.T) {
	topo, err := topology.SingleRegion(3)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.FDEnabled = true
	params.LongTermTTL = 0
	c := newCluster(t, topo, params, 5, nil)

	leaver, corpse, survivor := topology.NodeID(1), topology.NodeID(2), topology.NodeID(0)
	mem := &trace.Memory{}
	traceMember(c.members[survivor], mem)
	c.members[leaver].InjectLongTerm(wire.MessageID{Source: 0, Seq: 1}, []byte("a"))
	c.members[leaver].InjectLongTerm(wire.MessageID{Source: 0, Seq: 2}, []byte("b"))
	c.sim.At(50*time.Millisecond, func() { c.crashNode(corpse) })
	c.sim.At(1500*time.Millisecond, func() { c.members[leaver].Leave() })
	c.sim.RunUntil(3 * time.Second)

	if got := len(mem.Filter(trace.HandoffRecv)); got != 2 {
		t.Fatalf("survivor received %d handoffs, want 2 (none may go to the corpse)", got)
	}
}

// TestAbandonedRecoveryCountsUnrecoverable: when every recovery phase
// exhausts (no holder anywhere, no parent region), the loss is counted
// unrecoverable rather than silently dropped — and a late delivery
// un-counts it.
func TestAbandonedRecoveryCountsUnrecoverable(t *testing.T) {
	topo, err := topology.SingleRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	c := newCluster(t, topo, params, 9, nil)

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	m := c.members[1]
	c.sim.At(0, func() { m.StartRecovery(id) })
	c.sim.RunUntil(5 * time.Second) // 64 local tries ≈ 0.7 s, then give up

	if got := slices.Collect(m.Unrecovered); len(got) != 1 || got[0] != id {
		t.Fatalf("Unrecovered yields %v, want [%v]", got, id)
	}

	// A very late repair still lands: the loss is no longer unrecoverable.
	c.net.Unicast(0, 1, wire.Message{Type: wire.TypeRepair, From: 0, ID: id, Payload: []byte("late")})
	c.sim.RunUntil(6 * time.Second)
	if !m.HasReceived(id) {
		t.Fatal("late repair not delivered")
	}
	if len(slices.Collect(m.Unrecovered)) != 0 {
		t.Fatal("Unrecovered still yields the message after its late delivery")
	}
}

// TestCrashedMemberIgnoresTrafficAndLeave: a crashed member processes
// nothing, cannot leave gracefully, and resumes cleanly on Recover.
func TestCrashedMemberIgnoresTrafficAndLeave(t *testing.T) {
	topo, err := topology.SingleRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, topo, DefaultParams(), 13, nil)

	victim := c.members[2]
	victim.Crash()
	victim.Leave()
	if victim.Left() {
		t.Fatal("crashed member left gracefully")
	}
	victim.Receive(0, wire.Message{Type: wire.TypeData, From: 0,
		ID: wire.MessageID{Source: 0, Seq: 1}, Payload: []byte("x")})
	if victim.HasReceived(wire.MessageID{Source: 0, Seq: 1}) {
		t.Fatal("crashed member processed a PDU")
	}
	victim.Recover()
	if victim.Crashed() {
		t.Fatal("Recover left the member crashed")
	}
	victim.Receive(0, wire.Message{Type: wire.TypeData, From: 0,
		ID: wire.MessageID{Source: 0, Seq: 1}, Payload: []byte("x")})
	if !victim.HasReceived(wire.MessageID{Source: 0, Seq: 1}) {
		t.Fatal("recovered member did not resume processing")
	}
}

// TestSourcesHeardOutOfOrder: a member first hears sources 9, 2 and 5, in
// that order, each with gaps. Reception answers per source, the buffer
// lists its entries by (source, sequence), and after an outage Recover
// re-requests the gaps in (source, sequence) order — the order that pairs
// its rng draws with messages, so it must not depend on the order the
// sources were first heard.
func TestSourcesHeardOutOfOrder(t *testing.T) {
	c := newCluster(t, singleRegion(t, 3), DefaultParams(), 11, nil)
	m := c.members[1]
	heard := map[topology.NodeID][]uint64{9: {1, 3}, 2: {2, 4}, 5: {3}}
	for _, src := range []topology.NodeID{9, 2, 5} {
		for _, seq := range heard[src] {
			m.InjectDeliver(wire.MessageID{Source: src, Seq: seq}, nil)
		}
	}
	for _, src := range []topology.NodeID{2, 5, 7, 9} {
		for seq := uint64(1); seq <= 4; seq++ {
			id := wire.MessageID{Source: src, Seq: seq}
			if got, want := m.HasReceived(id), slices.Contains(heard[src], seq); got != want {
				t.Errorf("HasReceived(%v) = %v, want %v", id, got, want)
			}
		}
	}
	for src, want := range map[topology.NodeID]uint64{2: 0, 5: 0, 7: 0, 9: 1} {
		if got := m.Prefix(src); got != want {
			t.Errorf("Prefix(%d) = %d, want %d", src, got, want)
		}
	}
	var stored []wire.MessageID
	for _, e := range m.Buffer().Entries() {
		stored = append(stored, e.ID)
	}
	wantStored := []wire.MessageID{{Source: 2, Seq: 2}, {Source: 2, Seq: 4}, {Source: 5, Seq: 3}, {Source: 9, Seq: 1}, {Source: 9, Seq: 3}}
	if !slices.Equal(stored, wantStored) {
		t.Errorf("buffer entries %v, want %v", stored, wantStored)
	}

	m.Crash()
	mem := &trace.Memory{}
	traceMember(m, mem)
	m.Recover()
	var asked []wire.MessageID
	for _, e := range mem.Filter(trace.LocalReq) {
		asked = append(asked, e.ID)
	}
	wantAsked := []wire.MessageID{{Source: 2, Seq: 1}, {Source: 2, Seq: 3}, {Source: 5, Seq: 1}, {Source: 5, Seq: 2}, {Source: 9, Seq: 2}}
	if !slices.Equal(asked, wantAsked) {
		t.Fatalf("re-recovery asked for %v, want %v", asked, wantAsked)
	}
}
