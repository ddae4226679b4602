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
// whole matrix. The NAK retry loop re-arms the clock.Handle in its
// nakState with the nakState as its Firer, and a repair served from the
// buffer builds only value-typed messages — both must stay at zero
// steady-state allocations.

// dropTransport is a Transport whose sends vanish.
type dropTransport struct{}

func (dropTransport) Send(_, _ topology.NodeID, _ wire.Message) {}
func (dropTransport) Broadcast(topology.NodeID, wire.Message)   {}

// standalone builds one node of a 4-member region on its own simulator,
// with sends that vanish.
func standalone(t *testing.T, idx int, seed uint64, params Params) (*sim.Sim, *Node, *topology.Topology) {
	t.Helper()
	topo, err := topology.SingleRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	view, err := topo.ViewOf(topo.MemberAt(0, idx))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	n := New(Config{View: view, Transport: dropTransport{}, Sched: s, Rng: rng.New(seed), Params: params})
	return s, n, topo
}

// TestRepairServeAllocs guards the NAK → buffer hit → repair path.
func TestRepairServeAllocs(t *testing.T) {
	_, server, topo := standalone(t, 0, 1, Params{})
	peer := topo.MemberAt(0, 1)
	id := wire.MessageID{Source: server.cfg.View.Self, Seq: 1}
	server.deliver(id, make([]byte, 256))
	nak := wire.Message{Type: wire.TypeNak, From: peer, ID: id}
	for i := 0; i < 64; i++ { // warm metric and map internals
		server.receive(peer, &nak)
	}
	avg := testing.AllocsPerRun(200, func() {
		server.receive(peer, &nak)
	})
	if avg != 0 {
		t.Fatalf("served repair allocates %.2f objects/op, want 0", avg)
	}
}

// TestNakRetryAllocs guards the receiver's retry loop: after the episode
// starts, every re-arm (send + handle re-arm) must allocate nothing,
// however many times it fires.
func TestNakRetryAllocs(t *testing.T) {
	// Never give up inside the measurement.
	s, receiver, topo := standalone(t, 1, 2, Params{MaxTries: 1 << 30})
	// A session announces seq 1 that never arrives: the retry loop runs
	// forever against the void.
	receiver.receive(topo.MemberAt(0, 0), &wire.Message{
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
