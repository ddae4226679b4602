package rmtp

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Allocation-regression guards for the baseline's hot paths, mirroring
// internal/netsim's: the protocol-axis sweep runs the RMTP kernel over
// every fault cell, so a quiet allocation regression here would tax the
// whole matrix. The NAK retry loop re-arms through the scheduler's pooled
// Post path with a once-bound callback, and a repair served from the
// buffer builds only value-typed messages — both must stay at zero
// steady-state allocations.

// allocServer builds a standalone repair server whose sends vanish.
func allocServer(t *testing.T) (*sim.Sim, *Node, topology.NodeID) {
	t.Helper()
	topo, err := topology.SingleRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	server := New(Config{
		Self:          topo.MemberAt(0, 0),
		Server:        topo.MemberAt(0, 0),
		ParentServer:  topology.NoNode,
		RegionMembers: topo.Members(0),
		Send:          func(topology.NodeID, wire.Message) {},
		Sched:         s,
		Rng:           rng.New(1),
	})
	return s, server, topo.MemberAt(0, 1)
}

// TestRepairServeAllocs guards the NAK → buffer hit → repair path.
func TestRepairServeAllocs(t *testing.T) {
	_, server, peer := allocServer(t)
	id := wire.MessageID{Source: server.cfg.Self, Seq: 1}
	server.deliver(id, make([]byte, 256))
	nak := wire.Message{Type: wire.TypeNak, From: peer, ID: id}
	for i := 0; i < 64; i++ { // warm metric and map internals
		server.Receive(peer, nak)
	}
	avg := testing.AllocsPerRun(200, func() {
		server.Receive(peer, nak)
	})
	if avg != 0 {
		t.Fatalf("served repair allocates %.2f objects/op, want 0", avg)
	}
}

// TestNakRetryAllocs guards the receiver's retry loop: after the episode
// starts, every re-arm (send + pooled Post) must allocate nothing, however
// many times it fires.
func TestNakRetryAllocs(t *testing.T) {
	topo, err := topology.SingleRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	params := Params{MaxTries: 1 << 30} // never give up inside the measurement
	receiver := New(Config{
		Self:          topo.MemberAt(0, 1),
		Server:        topo.MemberAt(0, 0),
		ParentServer:  topology.NoNode,
		RegionMembers: topo.Members(0),
		Send:          func(topology.NodeID, wire.Message) {},
		Sched:         s,
		Rng:           rng.New(2),
		Params:        params,
	})
	// A session announces seq 1 that never arrives: the retry loop runs
	// forever against the void.
	receiver.Receive(topo.MemberAt(0, 0), wire.Message{
		Type: wire.TypeSession, From: topo.Sender(), TopSeq: 1,
	})
	step := nakRTT
	for i := 0; i < 64; i++ { // warm the event pool
		s.RunUntil(s.Now() + step)
	}
	avg := testing.AllocsPerRun(200, func() {
		s.RunUntil(s.Now() + step) // fires exactly one retry re-arm
	})
	if avg != 0 {
		t.Fatalf("NAK retry re-arm allocates %.2f objects/op, want 0", avg)
	}
	if receiver.Metrics().NaksSent.Value() < 200 {
		t.Fatalf("measurement fired only %d retries; loop died", receiver.Metrics().NaksSent.Value())
	}
}
