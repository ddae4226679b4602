package stability

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// stabCluster wires one detector per member with controllable local
// prefixes.
type stabCluster struct {
	sim       *sim.Sim
	net       *netsim.Network
	topo      *topology.Topology
	detectors map[topology.NodeID]*Detector
	prefixes  map[topology.NodeID]uint64
	stable    map[topology.NodeID][]uint64
	sent      int // history PDUs handed to the network
}

func newStabCluster(t *testing.T, n int, seed uint64) *stabCluster {
	t.Helper()
	topo, err := topology.SingleRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	net := netsim.New(s, netsim.UniformLatency{Delay: 2 * time.Millisecond}, nil)
	root := rng.New(seed)
	c := &stabCluster{
		sim: s, net: net, topo: topo,
		detectors: make(map[topology.NodeID]*Detector),
		prefixes:  make(map[topology.NodeID]uint64),
		stable:    make(map[topology.NodeID][]uint64),
	}
	for _, node := range topo.Members(0) {
		node := node
		view, err := topo.ViewOf(node)
		if err != nil {
			t.Fatal(err)
		}
		d := New(Config{
			View:   view,
			Source: topo.Sender(),
			Sched:  s,
			Rng:    root.Split(uint64(node) + 1),
			Send: func(to topology.NodeID, msg wire.Message) {
				c.sent++
				net.Unicast(node, to, msg)
			},
			LocalPrefix: func() uint64 { return c.prefixes[node] },
			OnStable:    func(seq uint64) { c.stable[node] = append(c.stable[node], seq) },
		})
		c.detectors[node] = d
		net.Register(node, func(p netsim.Packet) { d.Receive(p.Msg) })
	}
	return c
}

func (c *stabCluster) startAll() {
	for _, d := range c.detectors {
		d.Start()
	}
}

func TestStabilityAdvancesToMinimum(t *testing.T) {
	c := newStabCluster(t, 4, 1)
	c.prefixes[0] = 10
	c.prefixes[1] = 7
	c.prefixes[2] = 9
	c.prefixes[3] = 12
	c.startAll()
	c.sim.RunUntil(time.Second)
	for n, d := range c.detectors {
		if got := d.stable; got != 7 {
			t.Fatalf("node %d stable floor %d, want 7 (the minimum prefix)", n, got)
		}
	}
	// OnStable fired once per seq in order 1..7.
	for n, seqs := range c.stable {
		if len(seqs) != 7 {
			t.Fatalf("node %d saw %d stability events", n, len(seqs))
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("node %d stability order %v", n, seqs)
			}
		}
	}
}

func TestStabilityFollowsProgress(t *testing.T) {
	c := newStabCluster(t, 3, 2)
	c.startAll()
	// Everyone advances together in steps.
	for step := uint64(1); step <= 5; step++ {
		step := step
		c.sim.At(time.Duration(step)*200*time.Millisecond, func() {
			for n := range c.prefixes {
				_ = n
			}
			for _, node := range c.topo.Members(0) {
				c.prefixes[node] = step
			}
		})
	}
	c.sim.RunUntil(2 * time.Second)
	for n, d := range c.detectors {
		if got := d.stable; got != 5 {
			t.Fatalf("node %d floor %d, want 5", n, got)
		}
	}
}

func TestStragglerBlocksStability(t *testing.T) {
	c := newStabCluster(t, 3, 3)
	c.prefixes[0] = 100
	c.prefixes[1] = 100
	c.prefixes[2] = 0 // straggler never advances
	c.startAll()
	c.sim.RunUntil(2 * time.Second)
	for n, d := range c.detectors {
		if d.stable != 0 {
			t.Fatalf("node %d declared stability despite a straggler", n)
		}
	}
}

func TestReceiveFiltersSourceAndType(t *testing.T) {
	c := newStabCluster(t, 2, 5)
	d := c.detectors[0]
	// Wrong type.
	d.Receive(wire.Message{Type: wire.TypeData, From: 1, TopSeq: 99, ID: wire.MessageID{Source: c.topo.Sender()}})
	// Wrong source stream.
	d.Receive(wire.Message{Type: wire.TypeHistory, From: 1, TopSeq: 99, ID: wire.MessageID{Source: 55}})
	if d.floors[1] != 0 {
		t.Fatal("detector merged a filtered digest")
	}
	// Correct digest merges; stale digest does not regress.
	d.Receive(wire.Message{Type: wire.TypeHistory, From: 1, TopSeq: 9, ID: wire.MessageID{Source: c.topo.Sender()}})
	d.Receive(wire.Message{Type: wire.TypeHistory, From: 1, TopSeq: 4, ID: wire.MessageID{Source: c.topo.Sender()}})
	if d.floors[1] != 9 {
		t.Fatalf("floor = %d, want 9", d.floors[1])
	}
}

func TestDigestTrafficCounted(t *testing.T) {
	c := newStabCluster(t, 5, 6)
	c.startAll()
	c.sim.RunUntil(time.Second)
	// ~10 rounds × 5 members × 4 peers = ~200; accept a broad band.
	if c.sent < 100 || c.sent > 300 {
		t.Fatalf("digests sent %d, want ~200 over 1s at 100ms interval", c.sent)
	}
}

func TestStopHaltsGossip(t *testing.T) {
	c := newStabCluster(t, 3, 7)
	c.startAll()
	c.sim.RunUntil(500 * time.Millisecond)
	for _, d := range c.detectors {
		d.Stop()
	}
	before := c.sent
	c.sim.RunUntil(2 * time.Second)
	if got := c.sent; got != before {
		t.Fatalf("gossip continued after Stop: %d -> %d", before, got)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without deps did not panic")
		}
	}()
	New(Config{})
}
