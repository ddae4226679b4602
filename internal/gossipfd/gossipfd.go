// Package gossipfd implements the gossip-style failure detection service of
// van Renesse, Minsky and Hayden that RRMP's companion work builds on
// (paper reference [13]).
//
// Each member maintains a heartbeat counter per known peer. Periodically it
// increments its own counter and sends its whole table to one uniformly
// random peer, which merges by taking element-wise maxima. A peer whose
// counter has not increased for FailTimeout is suspected; after
// CleanupTimeout it is dropped from the table so that counters of departed
// members do not linger forever.
//
// The detector is region-scoped, matching RRMP's partial-membership model:
// a member gossips only within its region view. Stability detection and the
// churn experiments use it to exclude dead members from membership-derived
// decisions.
//
// The table is four parallel slices (counter, last-advance time, state,
// tombstone) indexed by a peer's position in the view's shared, ascending
// RegionMembers, which is also the order of the Counters in a heartbeat
// PDU. A tick is one linear pass plus one copy, a merge compares two
// slices, and everything observable happens in that order: a sweep that
// suspects several peers reports them by ascending NodeID. A cleaned-up
// peer keeps its slot in state "dropped": it reads 0 in outgoing tables
// and true from Suspected, exactly as an absent peer would, and only a
// counter above its tombstone re-admits it. The copy a tick sends goes into
// a table an earlier heartbeat arrived in when the owner has handed one back
// (Recycle), so a healthy region circulates its tables instead of
// allocating one per tick. This is the fault cells' hot path (DESIGN §6);
// the map-based original survives as the oracle of differential_test.go.
package gossipfd

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Send transmits a heartbeat PDU to a peer; bind it to the network.
type Send func(to topology.NodeID, msg wire.Message)

// Config assembles a detector.
type Config struct {
	// View is the member's region view; the detector tracks all
	// RegionMembers (Self included).
	View topology.View
	// Sched supplies time and timers; required.
	Sched clock.Scheduler
	// Rng picks gossip targets; required.
	Rng *rng.Source
	// Send transmits heartbeats; required.
	Send Send
	// GossipInterval is the heartbeat/gossip period (default 50 ms).
	GossipInterval time.Duration
	// FailTimeout marks a peer suspected after this much silence
	// (default 8 × GossipInterval).
	FailTimeout time.Duration
	// CleanupTimeout drops a suspected peer's state entirely
	// (default 2 × FailTimeout).
	CleanupTimeout time.Duration
	// OnSuspect and OnRestore observe suspicion transitions.
	OnSuspect func(n topology.NodeID)
	// OnRestore fires when a suspected peer's counter advances again.
	OnRestore func(n topology.NodeID)
}

// Peer states. A dropped peer keeps its slot: its counter reads 0 in
// outgoing tables (as an absent peer always did) and Suspected reports true.
const (
	peerLive uint8 = iota
	peerSuspected
	peerDropped
)

// Detector is a region-scoped gossip failure detector. Not safe for
// concurrent use.
//
// Slot i of every slice below is peer order[i]. Sweeps, merges and picks
// walk the slots in order, so the OnSuspect (or OnRestore) callbacks of
// one sweep (or merge) fire in ascending NodeID order on every run.
type Detector struct {
	cfg       Config
	order     []topology.NodeID // cfg.View.RegionMembers, shared and read-only
	selfIdx   int               // Self's slot; always peerLive, never swept
	counter   []uint64          // highest heartbeat seen; 0 while dropped
	updatedAt []time.Duration   // when counter last advanced
	state     []uint8           // peerLive / peerSuspected / peerDropped
	// tombstone remembers the last counter of cleaned-up peers (allocated
	// on the first drop). Gossip tables keep circulating a dead peer's
	// final counter; re-admission requires a strictly higher value, i.e. a
	// genuinely fresh heartbeat.
	tombstone []uint64
	live      int // peers (Self excluded) in state peerLive
	// spare[:spares] are tables handed back through Recycle; a tick takes
	// its PDU's snapshot from here before it allocates one.
	spare   [4][]uint64
	spares  int
	onTick  func() // the timer callback, bound once
	ticker  clock.Handle
	running bool
}

// New constructs a detector (stopped; call Start).
func New(cfg Config) *Detector {
	if cfg.Sched == nil || cfg.Rng == nil || cfg.Send == nil {
		panic("gossipfd: Sched, Rng and Send are required")
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 50 * time.Millisecond
	}
	if cfg.FailTimeout <= 0 {
		cfg.FailTimeout = 8 * cfg.GossipInterval
	}
	if cfg.CleanupTimeout <= 0 {
		cfg.CleanupTimeout = 2 * cfg.FailTimeout
	}
	// The view's slice is the table order as is; slot lookup and the
	// ascending callback order depend on what topology promises for it.
	order, n := cfg.View.RegionMembers, len(cfg.View.RegionMembers)
	ok := cfg.View.SelfIdx < n && order[cfg.View.SelfIdx] == cfg.View.Self
	for i := 1; ok && i < n; i++ {
		ok = order[i-1] < order[i]
	}
	if !ok {
		panic("gossipfd: View.RegionMembers must be ascending with Self at SelfIdx")
	}
	d := &Detector{
		cfg:       cfg,
		order:     order,
		selfIdx:   cfg.View.SelfIdx,
		counter:   make([]uint64, n),
		updatedAt: make([]time.Duration, n),
		state:     make([]uint8, n),
		live:      n - 1,
	}
	now := cfg.Sched.Now()
	for i := range d.updatedAt {
		d.updatedAt[i] = now
	}
	d.onTick = func() {
		d.tick()
		if d.running {
			d.scheduleTick()
		}
	}
	return d
}

// Start begins periodic gossip. Idempotent.
func (d *Detector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.scheduleTick()
}

// Stop halts gossip. Idempotent.
func (d *Detector) Stop() {
	if !d.running {
		return
	}
	d.running = false
	d.ticker.Stop()
}

func (d *Detector) scheduleTick() {
	// Jitter desynchronizes members so gossip rounds do not phase-lock.
	delay := time.Duration(d.cfg.Rng.Jitter(float64(d.cfg.GossipInterval), 0.1))
	d.ticker.Arm(d.cfg.Sched, delay, d.onTick)
}

// tick increments the own counter, sweeps timeouts, and gossips the table
// to one random live peer.
func (d *Detector) tick() {
	now := d.cfg.Sched.Now()
	d.counter[d.selfIdx]++
	d.updatedAt[d.selfIdx] = now

	d.sweep(now)

	target, ok := d.PickPeer(d.cfg.Rng)
	if !ok {
		return
	}
	// The PDU outlives the tick (it rides the network), so it gets its own
	// snapshot of the table, in a recycled one when there is one.
	var counters []uint64
	if d.spares > 0 {
		d.spares--
		counters, d.spare[d.spares] = d.spare[d.spares], nil
	} else {
		counters = make([]uint64, len(d.counter))
	}
	copy(counters, d.counter)
	d.cfg.Send(target, wire.Message{
		Type:     wire.TypeHeartbeat,
		From:     d.cfg.View.Self,
		Counters: counters,
	})
}

// sweep updates suspicion state from timeouts, in table order. Cleanup is
// tested first, so a CleanupTimeout below FailTimeout drops a silent peer
// without ever reporting it suspected.
func (d *Detector) sweep(now time.Duration) {
	for i, s := range d.state {
		if s == peerDropped || i == d.selfIdx {
			continue
		}
		silence := now - d.updatedAt[i]
		switch {
		case silence > d.cfg.CleanupTimeout:
			if d.tombstone == nil {
				d.tombstone = make([]uint64, len(d.order))
			}
			d.tombstone[i], d.counter[i] = d.counter[i], 0
			d.setState(i, peerDropped)
		case silence > d.cfg.FailTimeout && s == peerLive:
			d.setState(i, peerSuspected)
			if d.cfg.OnSuspect != nil {
				d.cfg.OnSuspect(d.order[i])
			}
		}
	}
}

// setState moves peer slot i to state s, keeping the live count in step.
func (d *Detector) setState(i int, s uint8) {
	if d.state[i] == peerLive {
		d.live--
	} else if s == peerLive {
		d.live++
	}
	d.state[i] = s
}

// PickPeer draws one uniformly random region peer the detector considers
// alive, with a single r.Intn over their count; ok is false only for a
// one-member region. It is the gossip target pick, exported so RRMP's
// request, search and handoff picks share the table instead of rebuilding a
// candidate list from Suspected.
func (d *Detector) PickPeer(r *rng.Source) (topology.NodeID, bool) {
	peers := len(d.order) - 1
	if d.live == 0 || d.live == peers {
		// Nobody is excluded — or everyone looks dead, typical after this
		// node itself was partitioned or paused: then fall back to the
		// static view so a rejoining member can re-establish contact
		// instead of going permanently mute.
		if peers == 0 {
			return topology.NoNode, false
		}
		return d.order[r.Pick(len(d.order), d.selfIdx)], true
	}
	k := r.Intn(d.live)
	for i, s := range d.state {
		if s == peerLive && i != d.selfIdx {
			if k == 0 {
				return d.order[i], true
			}
			k--
		}
	}
	panic("gossipfd: live count out of step with the table")
}

// Receive merges an incoming heartbeat table (wire.TypeHeartbeat): slot by
// slot, a counter above the one held is adopted and stamped with the time.
func (d *Detector) Receive(msg wire.Message) {
	if msg.Type != wire.TypeHeartbeat {
		return
	}
	// Equal-length views of the slots both tables have let the compiler
	// drop the bounds checks of the merge loop.
	n := min(len(msg.Counters), len(d.counter))
	in, counter, updatedAt, state := msg.Counters[:n], d.counter[:n], d.updatedAt[:n], d.state[:n]
	now := time.Duration(-1) // read on the first advance only
	for i, c := range in {
		if c <= counter[i] || i == d.selfIdx {
			continue
		}
		s := state[i]
		// Re-admit a cleaned-up peer only on fresh evidence: a counter
		// strictly above its tombstone. Stale tables recirculating the
		// final pre-crash counter must not resurrect it.
		if s == peerDropped && c <= d.tombstone[i] {
			continue
		}
		if now < 0 {
			now = d.cfg.Sched.Now()
		}
		counter[i] = c
		updatedAt[i] = now
		if s != peerLive {
			// Re-admission is a restore too: the peer was considered
			// failed (dropped reads as suspected) and is demonstrably alive.
			d.setState(i, peerLive)
			if d.cfg.OnRestore != nil {
				d.cfg.OnRestore(d.order[i])
			}
		}
	}
}

// Recycle hands the detector the Counters of a heartbeat PDU that is spent:
// Receive has merged it and nothing else references it (the network
// delivered it to this member only). A later tick sends its snapshot in it
// instead of allocating one. Tables of another length, and more than the
// detector can hold, are left to the collector.
func (d *Detector) Recycle(table []uint64) {
	if len(table) == len(d.counter) && d.spares < len(d.spare) {
		d.spare[d.spares] = table
		d.spares++
	}
}

// Suspected reports whether n is currently suspected (dropped and unknown
// nodes count as suspected).
func (d *Detector) Suspected(n topology.NodeID) bool {
	i, known := slices.BinarySearch(d.order, n)
	return !known || d.state[i] != peerLive
}

// Live returns the sorted region members currently considered alive
// (including self).
func (d *Detector) Live() []topology.NodeID {
	out := make([]topology.NodeID, 0, d.live+1)
	for i, s := range d.state {
		if s == peerLive {
			out = append(out, d.order[i])
		}
	}
	return out
}
