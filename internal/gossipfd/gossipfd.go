// Package gossipfd implements the gossip-style failure detection service of
// van Renesse, Minsky and Hayden that RRMP's companion work builds on
// (paper reference [13]).
//
// Each member maintains a heartbeat counter per known peer. Periodically it
// increments its own counter and sends its whole table to one uniformly
// random peer, which merges by taking element-wise maxima. A peer whose
// counter has not increased for failTimeout is suspected; after
// cleanupTimeout it is dropped from the table so that counters of departed
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
// PDU. A merge compares two slices, a live peer's slot without a branch,
// and everything observable happens in that order: a sweep that suspects
// several peers reports them by ascending NodeID. A cleaned-up peer keeps
// its slot in state "dropped": it reads 0 in outgoing tables and true from
// Suspected, exactly as an absent peer would, and only a counter above its
// tombstone re-admits it.
//
// A tick does no search over the table. Its sweep is skipped outright
// until the earliest instant a timeout can expire (quiet), and otherwise
// reads a peer's state only when its last advance is older than
// failTimeout. Its gossip target is one draw over a bitmap of the live
// peers' slots, which a state change flips one bit of. The copy a tick
// sends goes into a table an earlier heartbeat arrived in when the owner
// has handed one back (Recycle). A region's detectors share one free list
// of such tables (Tables), so the region circulates about as many tables
// as it has heartbeats in flight instead of allocating one per tick. This
// is the fault cells' hot path (DESIGN §6); the map-based original
// survives as the oracle of differential_test.go.
package gossipfd

import (
	"math"
	"math/bits"
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
	// OnSuspect and OnRestore observe suspicion transitions.
	OnSuspect func(n topology.NodeID)
	// OnRestore fires when a suspected peer's counter advances again.
	OnRestore func(n topology.NodeID)
	// Tables is the free list of heartbeat tables the detector shares
	// with the rest of its region (see Tables). Nil gives the detector a
	// list of its own that keeps ownSpares tables.
	Tables *Tables
}

// Tables is a free list of heartbeat tables: a tick sends its snapshot in
// one from here when there is one, and Recycle puts a spent PDU's table
// back. The detectors of one region share a list, so a table any member
// receives is one any member's next tick can send. A list of one
// detector's own fills and empties at random, as more or fewer PDUs
// happen to reach it than it sends, and it drops a table when full and
// allocates one when empty: one tick in eight in a 100-member region with
// crashes. Not safe for concurrent use: the detectors sharing a
// list run on one event loop, as a region's members do (shards split the
// group by region).
type Tables struct {
	free [][]uint64
	max  int // tables kept at most; Recycle drops the rest
}

// NewTables returns an empty free list for the detectors of a region of
// size members. It keeps at most size tables. A tick allocates only when
// the list is empty, so the region owns about as many tables as it has
// heartbeats in flight at once: one per member when the region's
// latencies are under the gossip interval.
func NewTables(size int) *Tables { return &Tables{max: size} }

// ownSpares is how many tables a detector without a shared list keeps.
const ownSpares = 4

// The detector's timing: the heartbeat/gossip period, the silence after
// which a peer is suspected, and the silence after which its state is
// dropped entirely.
const (
	gossipInterval = 50 * time.Millisecond
	failTimeout    = 8 * gossipInterval
	cleanupTimeout = 2 * failTimeout
)

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
	// live marks the slots of the peers (Self excluded) in state
	// peerLive: bit i%64 of live[i/64] is slot i. nLive counts them.
	// PickPeer's k-th live peer is the k-th set bit, in slot order.
	// setState keeps both in step. Peers flap, so states change about as
	// often as peers are picked, and a change must stay one bit flip.
	live  []uint64
	nLive int
	// quiet bounds the next timeout from below: no sweep can act while
	// now−failTimeout ≤ quiet. A sweep sets it to the least last advance
	// of Self and the live peers, and for a suspected peer the instant
	// failTimeout before its cleanup. A merge only delays timeouts, and a
	// peer re-admitted after that sweep starts its clock later than Self's
	// advance in it, so neither moves the bound. A dropped peer's updatedAt
	// is never, so it neither passes a sweep's filter nor bounds quiet.
	quiet time.Duration
	// tables holds the tables handed back through Recycle; a tick takes
	// its PDU's snapshot from here before it allocates one.
	tables  *Tables
	ticker  clock.Handle // fires (*tickTimer)(d)
	running bool
}

// New constructs a detector (stopped; call Start).
func New(cfg Config) *Detector {
	if cfg.Sched == nil || cfg.Rng == nil || cfg.Send == nil {
		panic("gossipfd: Sched, Rng and Send are required")
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
	now := cfg.Sched.Now()
	words := make([]uint64, n+(n+63)/64) // the counters, then the live bitmap
	d := &Detector{
		cfg:       cfg,
		order:     order,
		selfIdx:   cfg.View.SelfIdx,
		counter:   words[:n:n],
		updatedAt: make([]time.Duration, n),
		state:     make([]uint8, n),
		live:      words[n:],
		nLive:     n - 1,
		quiet:     now,
		tables:    cfg.Tables,
	}
	if d.tables == nil {
		d.tables = &Tables{max: ownSpares}
	}
	for i := range d.updatedAt {
		d.updatedAt[i] = now
	}
	// Every peer starts live: the bitmap's n bits, less Self's.
	for w := range d.live {
		d.live[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		d.live[n/64] = 1<<r - 1
	}
	d.live[d.selfIdx/64] &^= 1 << (d.selfIdx % 64)
	return d
}

// never is the updatedAt of a dropped peer: no timeout expires after it.
const never = time.Duration(math.MaxInt64)

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
	delay := time.Duration(d.cfg.Rng.Jitter(float64(gossipInterval), 0.1))
	d.ticker.Arm(d.cfg.Sched, delay, (*tickTimer)(d))
}

// tickTimer is a Detector as its ticker's Firer: one gossip round, and the
// next one scheduled while the detector runs.
type tickTimer Detector

func (t *tickTimer) Fire() {
	d := (*Detector)(t)
	d.tick()
	if d.running {
		d.scheduleTick()
	}
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
	if t := d.tables; len(t.free) > 0 {
		k := len(t.free) - 1
		counters, t.free[k] = t.free[k], nil
		t.free = t.free[:k]
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

// sweep updates suspicion state from timeouts, in table order: a peer
// silent for more than failTimeout is suspected, and one silent for more
// than cleanupTimeout is dropped. Cleanup is tested first, so a peer that
// fell silent past cleanupTimeout while the detector was stopped is
// dropped without ever being reported suspected. Only a peer heard from
// before threshold is silent for more than failTimeout, so the others are
// passed over on their updatedAt alone; and while quiet is at or after
// threshold, nobody is.
func (d *Detector) sweep(now time.Duration) {
	threshold := now - failTimeout
	if threshold <= d.quiet {
		return
	}
	const grace = cleanupTimeout - failTimeout
	quiet := never
	for i, u := range d.updatedAt {
		if threshold <= u { // heard from lately (Self at every tick), or dropped
			quiet = min(quiet, u)
			continue
		}
		switch {
		case now-u > cleanupTimeout:
			if d.tombstone == nil {
				d.tombstone = make([]uint64, len(d.order))
			}
			d.tombstone[i], d.counter[i] = d.counter[i], 0
			d.updatedAt[i] = never
			d.setState(i, peerDropped)
		case d.state[i] == peerLive:
			quiet = min(quiet, u+grace)
			d.setState(i, peerSuspected)
			if d.cfg.OnSuspect != nil {
				d.cfg.OnSuspect(d.order[i])
			}
		default:
			quiet = min(quiet, u+grace)
		}
	}
	d.quiet = quiet
}

// setState moves peer slot i to state s, keeping the live bitmap and
// count in step.
func (d *Detector) setState(i int, s uint8) {
	if was := d.state[i]; (was == peerLive) != (s == peerLive) {
		d.live[i/64] ^= 1 << (i % 64)
		if s == peerLive {
			d.nLive++
		} else {
			d.nLive--
		}
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
	if d.nLive == 0 || d.nLive == peers {
		// Nobody is excluded — or everyone looks dead, typical after this
		// node itself was partitioned or paused: then fall back to the
		// static view so a rejoining member can re-establish contact
		// instead of going permanently mute.
		if peers == 0 {
			return topology.NoNode, false
		}
		return d.order[r.Pick(len(d.order), d.selfIdx)], true
	}
	k := r.Intn(d.nLive)
	for w, word := range d.live {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for range k {
			word &= word - 1 // clear the lowest set bit
		}
		return d.order[64*w+bits.TrailingZeros64(word)], true
	}
	panic("gossipfd: live count out of step with the table")
}

// Receive merges an incoming heartbeat table (wire.TypeHeartbeat): slot by
// slot, a counter above the one held is adopted and stamped with the time.
// About half of a gossiped table is news, so which slots advance is a coin
// toss: a live peer's slot is merged without a branch on it (a max and a
// conditional move), and only a suspected or dropped peer's takes one.
func (d *Detector) Receive(msg wire.Message) {
	if msg.Type != wire.TypeHeartbeat {
		return
	}
	// Equal-length views of the slots both tables have let the compiler
	// drop the bounds checks of the merge loop.
	n := min(len(msg.Counters), len(d.counter))
	in, counter, updatedAt, state := msg.Counters[:n], d.counter[:n], d.updatedAt[:n], d.state[:n]
	now := d.cfg.Sched.Now()
	// Self's slot is live and takes nothing from a merge: it is merged
	// with the rest and put back.
	self, selfCounter, selfAt := d.selfIdx, d.counter[d.selfIdx], d.updatedAt[d.selfIdx]
	for i, c := range in {
		old := counter[i]
		if state[i] != peerLive {
			if c > old {
				d.revive(i, c, now)
			}
			continue
		}
		at := updatedAt[i]
		if c > old {
			at = now
		}
		counter[i], updatedAt[i] = max(c, old), at
	}
	d.counter[self], d.updatedAt[self] = selfCounter, selfAt
}

// revive adopts counter c, which is above the one held, for the suspected
// or dropped peer in slot i, and restores it. A cleaned-up peer is
// re-admitted only on fresh evidence: a counter strictly above its
// tombstone. Stale tables recirculating the final pre-crash counter must
// not resurrect it.
func (d *Detector) revive(i int, c uint64, now time.Duration) {
	if d.state[i] == peerDropped && c <= d.tombstone[i] {
		return
	}
	d.counter[i], d.updatedAt[i] = c, now
	// Re-admission is a restore too: the peer was considered failed
	// (dropped reads as suspected) and is demonstrably alive.
	d.setState(i, peerLive)
	if d.cfg.OnRestore != nil {
		d.cfg.OnRestore(d.order[i])
	}
}

// Recycle hands the detector the Counters of a heartbeat PDU that is spent:
// merged by Receive, or dropped on its way, and referenced by nothing else
// (the network sent it to this member only). It goes into the detector's free
// list, and a later tick of any detector sharing the list sends its
// snapshot in it instead of allocating one. Tables of another length, and
// more than the list keeps, are left to the collector.
func (d *Detector) Recycle(table []uint64) {
	if t := d.tables; len(table) == len(d.counter) && len(t.free) < t.max {
		t.free = append(t.free, table)
	}
}

// Suspected reports whether n is currently suspected (dropped and unknown
// nodes count as suspected).
func (d *Detector) Suspected(n topology.NodeID) bool {
	i, known := slices.BinarySearch(d.order, n)
	return !known || d.state[i] != peerLive
}
