package gossipfd

// The map-based detector as it stood before the dense-table rewrite (PR 17),
// moved here verbatim apart from the ref* renames that let it share the
// package with its replacement. It is the oracle of differential_test.go:
// Send sequences, rng consumption, Suspected/Live answers and callback
// instants of Detector must equal this implementation's on every schedule.
// Do not "fix" or optimise it — its same-tick OnSuspect order is Go map
// order, which is why the differential test compares same-instant callbacks
// as sorted groups.

import (
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/topology"
	"repro/internal/wire"
)

// refEntry is one tracked peer.
type refEntry struct {
	counter   uint64
	updatedAt time.Duration
	suspected bool
}

// refDetector is a region-scoped gossip failure detector. Not safe for
// concurrent use.
type refDetector struct {
	cfg     Config
	order   []topology.NodeID // canonical table order: sorted region members
	index   map[topology.NodeID]int
	entries map[topology.NodeID]*refEntry
	// tombstones remember the last counter of cleaned-up peers. Gossip
	// tables keep circulating a dead peer's final counter; re-admission
	// requires a strictly higher value, i.e. a genuinely fresh heartbeat.
	tombstones map[topology.NodeID]uint64
	ticker     clock.Timer
	running    bool
}

// newRef constructs a reference detector (stopped; call Start).
func newRef(cfg Config) *refDetector {
	if cfg.Sched == nil || cfg.Rng == nil || cfg.Send == nil {
		panic("gossipfd: Sched, Rng and Send are required")
	}
	// The detector owns its member ordering (and the view's slice is
	// shared), so copy before sorting. Region slices are already
	// ascending, but the sorted order is this package's invariant — keep
	// enforcing it locally.
	members := append([]topology.NodeID(nil), cfg.View.RegionMembers...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	d := &refDetector{
		cfg:        cfg,
		order:      members,
		index:      make(map[topology.NodeID]int, len(members)),
		entries:    make(map[topology.NodeID]*refEntry, len(members)),
		tombstones: make(map[topology.NodeID]uint64),
	}
	now := cfg.Sched.Now()
	for i, n := range members {
		d.index[n] = i
		d.entries[n] = &refEntry{updatedAt: now}
	}
	return d
}

// Start begins periodic gossip. Idempotent.
func (d *refDetector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.scheduleTick()
}

// Stop halts gossip. Idempotent.
func (d *refDetector) Stop() {
	if !d.running {
		return
	}
	d.running = false
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

func (d *refDetector) scheduleTick() {
	// Jitter desynchronizes members so gossip rounds do not phase-lock.
	delay := time.Duration(d.cfg.Rng.Jitter(float64(gossipInterval), 0.1))
	d.ticker = d.cfg.Sched.After(delay, func() {
		d.tick()
		if d.running {
			d.scheduleTick()
		}
	})
}

// tick increments the own counter, sweeps timeouts, and gossips the table
// to one random live peer.
func (d *refDetector) tick() {
	now := d.cfg.Sched.Now()
	self := d.entries[d.cfg.View.Self]
	self.counter++
	self.updatedAt = now

	d.sweep(now)

	target, ok := d.randomLivePeer()
	if !ok {
		return
	}
	counters := make([]uint64, len(d.order))
	for i, n := range d.order {
		if e, ok := d.entries[n]; ok {
			counters[i] = e.counter
		}
	}
	d.cfg.Send(target, wire.Message{
		Type:     wire.TypeHeartbeat,
		From:     d.cfg.View.Self,
		Counters: counters,
	})
}

// sweep updates suspicion state from timeouts.
func (d *refDetector) sweep(now time.Duration) {
	for n, e := range d.entries {
		if n == d.cfg.View.Self {
			continue
		}
		silence := now - e.updatedAt
		switch {
		case silence > cleanupTimeout:
			d.tombstones[n] = e.counter
			delete(d.entries, n)
		case silence > failTimeout && !e.suspected:
			e.suspected = true
			if d.cfg.OnSuspect != nil {
				d.cfg.OnSuspect(n)
			}
		}
	}
}

func (d *refDetector) randomLivePeer() (topology.NodeID, bool) {
	candidates := make([]topology.NodeID, 0, len(d.order))
	for _, n := range d.order {
		if n == d.cfg.View.Self {
			continue
		}
		if e, ok := d.entries[n]; ok && !e.suspected {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		// Everyone looks dead — typical after this node itself was
		// partitioned or paused. Fall back to the static view so a
		// rejoining member can re-establish contact instead of going
		// permanently mute.
		for _, n := range d.order {
			if n != d.cfg.View.Self {
				candidates = append(candidates, n)
			}
		}
	}
	if len(candidates) == 0 {
		return topology.NoNode, false
	}
	return candidates[d.cfg.Rng.Intn(len(candidates))], true
}

// Receive merges an incoming heartbeat table (wire.TypeHeartbeat).
func (d *refDetector) Receive(msg wire.Message) {
	if msg.Type != wire.TypeHeartbeat {
		return
	}
	now := d.cfg.Sched.Now()
	for i, c := range msg.Counters {
		if i >= len(d.order) {
			break
		}
		n := d.order[i]
		if n == d.cfg.View.Self {
			continue
		}
		e, ok := d.entries[n]
		if !ok {
			// Re-admit a cleaned-up peer only on fresh evidence: a counter
			// strictly above its tombstone. Stale tables recirculating the
			// final pre-crash counter must not resurrect it.
			if c <= d.tombstones[n] {
				continue
			}
			delete(d.tombstones, n)
			// Re-admission is a restore: the peer was considered failed
			// (unknown reads as suspected) and is demonstrably alive.
			e = &refEntry{suspected: true}
			d.entries[n] = e
		}
		if c > e.counter {
			e.counter = c
			e.updatedAt = now
			if e.suspected {
				e.suspected = false
				if d.cfg.OnRestore != nil {
					d.cfg.OnRestore(n)
				}
			}
		}
	}
}

// Suspected reports whether n is currently suspected (unknown nodes count
// as suspected).
func (d *refDetector) Suspected(n topology.NodeID) bool {
	if n == d.cfg.View.Self {
		return false
	}
	e, ok := d.entries[n]
	return !ok || e.suspected
}

// Live returns the sorted region members currently considered alive
// (including self).
func (d *refDetector) Live() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(d.entries))
	for _, n := range d.order {
		if e, ok := d.entries[n]; ok && !e.suspected {
			out = append(out, n)
		}
	}
	return out
}
