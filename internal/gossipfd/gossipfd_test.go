package gossipfd

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fdCluster wires one detector per region member over a simulated network.
type fdCluster struct {
	sim       *sim.Sim
	net       *netsim.Network
	topo      *topology.Topology
	detectors map[topology.NodeID]*Detector
	suspects  map[topology.NodeID][]topology.NodeID // observer -> suspected
	restores  map[topology.NodeID][]topology.NodeID
}

func newFDCluster(t *testing.T, n int, seed uint64) *fdCluster {
	t.Helper()
	topo, err := topology.SingleRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	net := netsim.New(s, netsim.UniformLatency{Delay: 2 * time.Millisecond}, nil)
	root := rng.New(seed)
	c := &fdCluster{
		sim: s, net: net, topo: topo,
		detectors: make(map[topology.NodeID]*Detector),
		suspects:  make(map[topology.NodeID][]topology.NodeID),
		restores:  make(map[topology.NodeID][]topology.NodeID),
	}
	for _, node := range topo.Members(0) {
		node := node
		view, err := topo.ViewOf(node)
		if err != nil {
			t.Fatal(err)
		}
		d := New(Config{
			View:  view,
			Sched: s,
			Rng:   root.Split(uint64(node) + 1),
			Send: func(to topology.NodeID, msg wire.Message) {
				net.Unicast(node, to, msg)
			},
			OnSuspect: func(x topology.NodeID) { c.suspects[node] = append(c.suspects[node], x) },
			OnRestore: func(x topology.NodeID) { c.restores[node] = append(c.restores[node], x) },
		})
		c.detectors[node] = d
		net.Register(node, func(p netsim.Packet) { d.Receive(p.Msg) })
	}
	return c
}

func (c *fdCluster) startAll() {
	for _, d := range c.detectors {
		d.Start()
	}
}

func TestNoSuspicionsWhenAllAlive(t *testing.T) {
	c := newFDCluster(t, 8, 1)
	c.startAll()
	c.sim.RunUntil(3 * time.Second)
	for n, sus := range c.suspects {
		if len(sus) != 0 {
			t.Fatalf("node %d suspected %v with everyone alive", n, sus)
		}
	}
	for n, d := range c.detectors {
		if got := len(d.Live()); got != 8 {
			t.Fatalf("node %d sees %d live members", n, got)
		}
	}
}

func TestCrashDetected(t *testing.T) {
	c := newFDCluster(t, 8, 2)
	c.startAll()
	victim := topology.NodeID(3)
	c.sim.At(time.Second, func() {
		c.detectors[victim].Stop()
		c.net.SetDown(victim, true)
	})
	c.sim.RunUntil(4 * time.Second)
	for _, n := range c.topo.Members(0) {
		if n == victim {
			continue
		}
		if !c.detectors[n].Suspected(victim) {
			// It may have been cleaned up entirely, which also counts.
			found := false
			for _, s := range c.suspects[n] {
				if s == victim {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d never suspected crashed node %d", n, victim)
			}
		}
	}
	// No false positives.
	for n, sus := range c.suspects {
		for _, s := range sus {
			if s != victim {
				t.Fatalf("node %d falsely suspected %d", n, s)
			}
		}
	}
}

func TestRecoveryRestores(t *testing.T) {
	c := newFDCluster(t, 6, 3)
	c.startAll()
	victim := topology.NodeID(2)
	c.sim.At(500*time.Millisecond, func() {
		c.detectors[victim].Stop()
		c.net.SetDown(victim, true)
	})
	// Revive before cleanup expires (cleanup = 2 * fail = 1.6s after
	// silence starts).
	c.sim.At(1200*time.Millisecond, func() {
		c.net.SetDown(victim, false)
		c.detectors[victim].Start()
	})
	c.sim.RunUntil(4 * time.Second)
	restoredSomewhere := false
	for _, rs := range c.restores {
		for _, r := range rs {
			if r == victim {
				restoredSomewhere = true
			}
		}
	}
	if !restoredSomewhere {
		t.Fatal("revived node never restored at any peer")
	}
	for _, n := range c.topo.Members(0) {
		if n == victim {
			continue
		}
		if c.detectors[n].Suspected(victim) {
			t.Fatalf("node %d still suspects revived node %d", n, victim)
		}
	}
}

func TestCleanupRemovesDeadPeer(t *testing.T) {
	c := newFDCluster(t, 4, 4)
	c.startAll()
	victim := topology.NodeID(1)
	c.sim.At(200*time.Millisecond, func() {
		c.detectors[victim].Stop()
		c.net.SetDown(victim, true)
	})
	c.sim.RunUntil(10 * time.Second)
	for _, n := range c.topo.Members(0) {
		if n == victim {
			continue
		}
		for _, live := range c.detectors[n].Live() {
			if live == victim {
				t.Fatalf("node %d still lists dead node %d as live", n, victim)
			}
		}
		if !c.detectors[n].Suspected(victim) {
			// After cleanup the node is unknown, which must read as
			// suspected.
			t.Fatalf("node %d does not report cleaned-up node as suspected", n)
		}
	}
}

func TestSuspectedSelfAlwaysFalse(t *testing.T) {
	c := newFDCluster(t, 3, 5)
	if c.detectors[0].Suspected(0) {
		t.Fatal("node suspects itself")
	}
}

func TestReceiveIgnoresOtherTypes(t *testing.T) {
	c := newFDCluster(t, 3, 6)
	d := c.detectors[0]
	d.Receive(wire.Message{Type: wire.TypeData, Counters: []uint64{9, 9, 9}})
	// Counters must be untouched: node 1 still at 0.
	if d.counter[1] != 0 {
		t.Fatal("non-heartbeat message merged")
	}
}

func TestCountersMonotone(t *testing.T) {
	c := newFDCluster(t, 3, 7)
	d := c.detectors[0]
	d.Receive(wire.Message{Type: wire.TypeHeartbeat, From: 1, Counters: []uint64{0, 5, 0}})
	if d.counter[1] != 5 {
		t.Fatalf("counter = %d", d.counter[1])
	}
	// A stale table must not regress the counter.
	d.Receive(wire.Message{Type: wire.TypeHeartbeat, From: 2, Counters: []uint64{0, 3, 0}})
	if d.counter[1] != 5 {
		t.Fatalf("counter regressed to %d", d.counter[1])
	}
}

func TestStartStopIdempotent(t *testing.T) {
	c := newFDCluster(t, 3, 8)
	d := c.detectors[0]
	d.Start()
	d.Start()
	d.Stop()
	d.Stop()
	c.sim.RunUntil(time.Second)
	// After stop, no more gossip from node 0.
	sent := c.net.Stats().SentCount(wire.TypeHeartbeat)
	c.sim.RunUntil(2 * time.Second)
	// Other detectors were never started, so traffic must not grow.
	if got := c.net.Stats().SentCount(wire.TypeHeartbeat); got != sent {
		t.Fatalf("gossip continued after Stop: %d -> %d", sent, got)
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

// One sweep that suspects several peers reports them in table order —
// ascending NodeID — on every run. The map-based detector emitted them in
// Go map order, which leaked into -trace-out files (metrics commute, trace
// lines do not).
func TestSameSweepSuspectsAscend(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		view := diffView(rng.New(uint64(rep)), 9, rep%2 == 1)
		r := newRig(Config{View: view}, 1, func(c Config) fdAPI { return New(c) })
		r.fd.Start()
		// Nobody ever gossips back: the first tick past FailTimeout
		// (8 × 50 ms) suspects all eight peers in one sweep.
		r.sched.advance(time.Second)
		if len(r.calls) != 8 {
			t.Fatalf("rep %d: %d callbacks, want 8 suspicions", rep, len(r.calls))
		}
		for i, c := range r.calls {
			if c.restore || c.at != r.calls[0].at {
				t.Fatalf("rep %d: callback %d = %+v, want a SUSPECT in the sweep at %v", rep, i, c, r.calls[0].at)
			}
			if i > 0 && c.peer <= r.calls[i-1].peer {
				t.Fatalf("rep %d: suspicions out of table order: %+v", rep, r.calls)
			}
		}
	}
}

// Allocation guards for the four calls sweep600's fault cells spend their
// time in (DESIGN §6). The detector's table is slices walked in place:
// nothing but the heartbeat PDU's own counter snapshot is allocated.
func TestDetectorAllocs(t *testing.T) {
	const n = 100
	topo, err := topology.SingleRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	view, err := topo.ViewOf(40)
	if err != nil {
		t.Fatal(err)
	}
	sched := &manualSched{}
	d := New(Config{View: view, Sched: sched, Rng: rng.New(1), Send: func(topology.NodeID, wire.Message) {}})
	d.Start()
	// Silence three peers into suspicion so picks walk the table instead of
	// taking the everyone-is-live shortcut.
	fresh := wire.Message{Type: wire.TypeHeartbeat, From: 1, Counters: make([]uint64, n)}
	advanceAll := func() {
		for i := range fresh.Counters {
			if i != 7 && i != 50 && i != 99 {
				fresh.Counters[i]++
			}
		}
	}
	for sched.now < time.Second {
		advanceAll()
		d.Receive(fresh)
		sched.advance(sched.now + 40*time.Millisecond)
	}
	if got := len(d.Live()); got != n-3 {
		t.Fatalf("%d live members, want %d", got, n-3)
	}

	if a := testing.AllocsPerRun(200, func() { advanceAll(); d.Receive(fresh) }); a != 0 {
		t.Errorf("Receive of a full advancing table: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { d.Suspected(50); d.Suspected(51); d.Suspected(1000) }); a != 0 {
		t.Errorf("Suspected: %v allocs, want 0", a)
	}
	r := rng.New(2)
	if a := testing.AllocsPerRun(200, func() { d.PickPeer(r) }); a != 0 {
		t.Errorf("PickPeer: %v allocs, want 0", a)
	}
	// One steady-state tick allocates exactly one object: the PDU's counter
	// snapshot (it outlives the tick on the network). No candidate slice,
	// no closure — the tick callback is bound once in New — and no timer
	// handle: the ticker is a clock.Handle in the detector, armed through
	// the scheduler's ArmAfter as on sim.Sim.
	a := testing.AllocsPerRun(200, func() {
		advanceAll()
		d.Receive(fresh) // keeps the table in its steady state as time passes
		sched.advance(sched.timers[0].at)
	})
	if a != 1 {
		t.Errorf("steady-state tick: %v allocs, want 1 (counter snapshot)", a)
	}
	// A tick that finds a recycled table sends its snapshot in it and
	// allocates nothing. Recycle itself allocates nothing.
	spent := make([]uint64, n)
	a = testing.AllocsPerRun(200, func() {
		advanceAll()
		d.Receive(fresh)
		d.Recycle(spent) // as if spent had just arrived and been merged
		sched.advance(sched.timers[0].at)
	})
	if a != 0 {
		t.Errorf("tick with a recycled table: %v allocs, want 0", a)
	}
}

// TestRecycledTablesCarrySnapshots runs a region whose members hand every
// delivered heartbeat table back to their detector, as rrmp does, and
// checks the ownership rule that makes it safe: a table is in one place at
// a time (on the network or in one detector's spares), what arrives is
// what was sent, and most PDUs ride in a recycled table.
func TestRecycledTablesCarrySnapshots(t *testing.T) {
	c := newFDCluster(t, 20, 11)
	inFlight := map[*uint64][]uint64{} // a copy as sent, by the table's first element
	spare := map[*uint64]bool{}        // accepted by some detector's Recycle
	var pdus, fresh int
	for node, d := range c.detectors {
		node, d := node, d
		d.cfg.Send = func(to topology.NodeID, msg wire.Message) {
			key := &msg.Counters[0]
			if _, dup := inFlight[key]; dup {
				t.Fatalf("member %d sent a table that is still on the network", node)
			}
			pdus++
			if !spare[key] {
				fresh++
			}
			delete(spare, key)
			if msg.Counters[d.selfIdx] != d.counter[d.selfIdx] || len(msg.Counters) != len(d.counter) {
				t.Fatalf("member %d sent a table that is not its current one", node)
			}
			inFlight[key] = slices.Clone(msg.Counters)
			c.net.Unicast(node, to, msg)
		}
		c.net.Register(node, func(p netsim.Packet) {
			key := &p.Msg.Counters[0]
			if sent := inFlight[key]; !slices.Equal(sent, p.Msg.Counters) {
				t.Fatalf("member %d received %v, sent was %v", node, p.Msg.Counters, sent)
			}
			delete(inFlight, key)
			d.Receive(p.Msg)
			before := d.spares
			d.Recycle(p.Msg.Counters)
			if d.spares > before {
				spare[key] = true
			}
		})
	}
	c.startAll()
	c.sim.RunUntil(10 * time.Second)
	t.Logf("%d of %d PDUs in a fresh table", fresh, pdus)
	if pdus < 3000 || fresh*4 > pdus {
		t.Errorf("%d of %d PDUs needed a fresh table, want under a quarter of at least 3000", fresh, pdus)
	}
	for node, d := range c.detectors {
		if got := len(d.Live()); got != 20 {
			t.Errorf("member %d sees %d live members, want 20", node, got)
		}
	}

	// Tables of another length and tables beyond the stack are refused.
	d := c.detectors[0]
	d.spares = 0
	d.Recycle(make([]uint64, 19))
	d.Recycle(make([]uint64, 21))
	if d.spares != 0 {
		t.Errorf("Recycle kept a table of the wrong length")
	}
	for i := 0; i < 2*len(d.spare); i++ {
		d.Recycle(make([]uint64, 20))
	}
	if d.spares != len(d.spare) {
		t.Errorf("%d spares after overfilling, want %d", d.spares, len(d.spare))
	}
}
