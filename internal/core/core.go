// Package core implements the paper's primary contribution: the two-phase
// buffer management algorithm for reliable multicast (§3).
//
// A Buffer holds received messages and decides, per message, how long to
// keep them:
//
//   - Short term (§3.1, feedback-based): every received message is buffered
//     until it has been idle — no retransmission request observed — for an
//     idle threshold T. Each incoming request is implicit feedback that
//     members of the region still miss the message, so the idle timer
//     re-arms. P(no request | fraction p missing) ≈ e^(−p), so a quiet
//     interval of a few RTTs implies the region has the message.
//
//   - Long term (§3.2, randomized): when a message becomes idle the member
//     elects itself a long-term bufferer with probability C/n, making the
//     number of long-term bufferers per region Binomial(n, C/n) ≈
//     Poisson(C). Long-term copies serve stragglers and downstream regions
//     and are handed off to a random peer when a member leaves voluntarily.
//
// The Buffer is a pure state machine over an injected clock.Scheduler: it
// performs no I/O and is driven entirely by Store / OnRequest / timer
// events, which is what lets every buffering policy (the paper's and the
// baselines') run inside the identical protocol engine.
package core

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/wire"
)

// State is the retention phase of a buffered entry.
type State int

// Entry states.
const (
	StateShortTerm State = iota + 1
	StateLongTerm
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateShortTerm:
		return "short-term"
	case StateLongTerm:
		return "long-term"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// EvictReason says why an entry left the buffer.
type EvictReason int

// Eviction reasons.
const (
	EvictIdle     EvictReason = iota + 1 // idle and not elected long-term
	EvictTTL                             // long-term copy aged out unused
	EvictHandoff                         // transferred to a peer on leave
	EvictStable                          // external stability notification
	EvictManual                          // removed by caller
	EvictPressure                        // displaced to fit a newer message under Config.ByteBudget
)

// String implements fmt.Stringer.
func (r EvictReason) String() string {
	switch r {
	case EvictIdle:
		return "idle"
	case EvictTTL:
		return "ttl"
	case EvictHandoff:
		return "handoff"
	case EvictStable:
		return "stable"
	case EvictManual:
		return "manual"
	case EvictPressure:
		return "pressure"
	default:
		return fmt.Sprintf("EvictReason(%d)", int(r))
	}
}

// Entry is one buffered message. It is its own idle and TTL timer's
// clock.Firer, so a buffered copy is one object and arming its timer
// binds no closure.
type Entry struct {
	ID      wire.MessageID
	Payload []byte
	// StoredAt is when the message entered this buffer.
	StoredAt time.Duration
	// LastRequest is the last time a retransmission request (or another
	// buffer "use", such as answering a search) touched this entry; it
	// equals StoredAt until the first request.
	LastRequest time.Duration
	// PromotedAt is when the entry became long-term, or -1 while it is
	// short-term; State reads the phase from it.
	PromotedAt time.Duration

	timer clock.Handle // idle timer in short-term, TTL timer in long-term
	// buf is the buffer holding the entry. A recycled entry may serve any
	// buffer that shares its Spares, so Store sets it on every reuse.
	buf *Buffer
}

// State returns the entry's retention phase: short-term until it is
// promoted, long-term from then on.
func (e *Entry) State() State {
	if e.PromotedAt < 0 {
		return StateShortTerm
	}
	return StateLongTerm
}

// Fire is the entry's timer callback. It dispatches on the phase:
// short-term entries run the idle check, long-term ones the TTL check.
func (e *Entry) Fire() {
	if e.State() == StateLongTerm {
		e.buf.ttlCheck(e)
	} else {
		e.buf.idleCheck(e)
	}
}

// Spares is a free list of evicted entries for Store to reuse, so the
// store/evict cycle allocates nothing in steady state. Buffers on one
// event loop share one list through their Shared: an entry one buffer
// evicts then serves the next store at any of them. Every eviction but a
// handoff puts its entry on the list, and a store makes a new entry only
// when the list is empty, so a list never holds more entries than the
// buffers sharing it held live at once (their summed peak), whatever
// they have drained since. The zero Spares is ready to use.
//
// The list is a stack of fixed-size chunks, kept once made: growing it
// copies nothing and leaves nothing behind, where a slice grown by append
// discarded every backing array but its last (5.3 MB of a scale100k
// trial's allocation). Reuse is last in, first out.
type Spares struct {
	chunks []*[spareChunk]*Entry
	n      int // entries held; the top is chunks[(n-1)/spareChunk]
}

// spareChunk is the entries one chunk of a Spares list holds: 512 bytes,
// the largest object the runtime allocates without an 8-byte header, which
// would put a 1 KiB chunk in the 1152-byte size class.
const spareChunk = 64

// push puts e on top of the list.
func (s *Spares) push(e *Entry) {
	c := s.n / spareChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([spareChunk]*Entry))
	}
	s.chunks[c][s.n%spareChunk] = e
	s.n++
}

// pop takes the top entry off the list, or returns nil if it is empty.
func (s *Spares) pop() *Entry {
	if s.n == 0 {
		return nil
	}
	s.n--
	c := s.chunks[s.n/spareChunk]
	e := c[s.n%spareChunk]
	c[s.n%spareChunk] = nil
	return e
}

// Shared is what a group of buffers driven from one goroutine have in
// common: the scheduler, the byte budget, the copy flag and the spare
// entries. Each buffer keeps a pointer to it (Buffer.Init), so rrmp's
// members of one region hold one value, their region's, and a buffer
// built by NewBuffer holds one of its own.
type Shared struct {
	// Sched supplies time and timers; required.
	Sched clock.Scheduler
	// ByteBudget and CopyPayload are as in Config.
	ByteBudget  int
	CopyPayload bool
	// Spares is the free list the buffers share.
	Spares Spares
}

// Observer is told of a buffer's evictions and long-term promotions, for
// instrumentation (rrmp's member Hooks); what a protocol reports of its
// buffer the buffer keeps itself. The *Entry is valid only during the
// call: once it returns, the object may be recycled for a later Store at
// this buffer or at any buffer sharing its Spares. Copy out what must
// outlive the call.
type Observer interface {
	Evicted(e *Entry, reason EvictReason)
	Promoted(e *Entry)
}

// Config assembles a buffer that shares nothing with another (NewBuffer).
type Config struct {
	// Policy decides retention; use NewTwoPhase for the paper's algorithm.
	Policy Policy
	// Sched supplies time and timers.
	Sched clock.Scheduler
	// Rng drives randomized election. Required by randomized policies.
	Rng *rng.Source
	// ByteBudget caps the summed payload bytes this buffer may hold; zero
	// or negative means unlimited (the paper's model, where buffer cost is
	// measured but never constrained). When a Store would exceed the
	// budget, entries are pressure-evicted (EvictPressure) in a
	// deterministic order — short-term entries longest-idle first, then
	// long-term copies oldest-promoted first — until the new payload fits.
	// A payload larger than the whole budget is denied outright: the store
	// returns nil and the denial is counted, never silent.
	ByteBudget int
	// CopyPayload stores a private copy of each payload instead of
	// aliasing the caller's slice. Simulated members all receive the
	// sender's one payload slice, so without copies every replica aliases
	// the same backing array; enable this when the caller may reuse or
	// mutate payload buffers after publishing.
	CopyPayload bool
}

// noCopy makes vet's copylocks check flag a copied Buffer: the index's
// source table points at its own inline first slot, so a copy would index
// the original.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Buffer is the per-member message store managed by a buffering policy.
// It is not safe for concurrent use; drive it from one goroutine (the
// simulator loop or a member's executor). Its zero value is made ready by
// Init, in place, so a Buffer can live inside the value that owns it.
type Buffer struct {
	_      noCopy
	sh     *Shared
	policy Policy
	rng    *rng.Source
	obs    Observer // nil when nothing observes the buffer
	idx    denseIndex

	// occ holds the occupancy integrals of the two levels, idx.n entries
	// and bytes payload bytes, in level-nanoseconds less level × now: a
	// store subtracts its instant (times the copy's bytes) and an eviction
	// or Close adds its own back, so the integral at t is occ + level × t,
	// exactly the sum of every copy's residence (OccupancyIntegral).
	occ                [2]int64
	bytes              int // current payload bytes held
	peakLen, peakBytes int
	buffering          stats.RunningMean     // store→evict times (BufferingTime)
	denied             uint32                // stores refused because the payload exceeds ByteBudget
	evicted            [EvictPressure]uint32 // evicted[r-1] counts reason r
}

// NewBuffer constructs an empty buffer with a Shared of its own:
// new(Buffer) made ready by Init.
func NewBuffer(cfg Config) *Buffer {
	b := new(Buffer)
	b.Init(&Shared{Sched: cfg.Sched, ByteBudget: cfg.ByteBudget, CopyPayload: cfg.CopyPayload}, cfg.Policy, cfg.Rng, nil)
	return b
}

// Init makes the zero Buffer b an empty buffer in place, sharing sh with
// the other buffers built on it, under policy p, drawing its elections
// from r and reporting to obs (nil for none). It panics on a missing
// policy or scheduler, since both are programming errors, not runtime
// conditions.
func (b *Buffer) Init(sh *Shared, p Policy, r *rng.Source, obs Observer) {
	if p == nil {
		panic("core: a Buffer needs a Policy")
	}
	if sh.Sched == nil {
		panic("core: a Buffer needs a Sched")
	}
	b.sh, b.policy, b.rng, b.obs = sh, p, r, obs
}

// Policy returns the buffer's retention policy.
func (b *Buffer) Policy() Policy { return b.policy }

// LongTermCount returns the number of entries in the long-term phase,
// counted in the index.
func (b *Buffer) LongTermCount() int {
	n := 0
	b.idx.each(func(e *Entry) {
		if e.State() == StateLongTerm {
			n++
		}
	})
	return n
}

// BufferingTime averages the store→evict times of the entries evicted so
// far, in milliseconds (§3.1, Fig. 6): every eviction reason counts but
// EvictHandoff, whose copy lives on at a peer.
func (b *Buffer) BufferingTime() *stats.RunningMean { return &b.buffering }

// EvictedCount returns how many entries have been evicted for the reason,
// and 0 for a value that is not an EvictReason.
func (b *Buffer) EvictedCount(r EvictReason) int {
	if r < EvictIdle || r > EvictPressure {
		return 0
	}
	return int(b.evicted[r-1])
}

// Has reports whether id is currently buffered.
func (b *Buffer) Has(id wire.MessageID) bool {
	_, ok := b.idx.get(id)
	return ok
}

// Get returns the entry for id if buffered. The entry is valid until it is
// evicted; after that the buffer may reuse it for another message.
func (b *Buffer) Get(id wire.MessageID) (*Entry, bool) {
	return b.idx.get(id)
}

// Entries returns a snapshot of all buffered entries in message-id order
// (callers own the slice; each pointed-to entry is valid until it is
// evicted, as with Get). The order is deterministic because callers pair
// entries with rng draws — the leave protocol picks a random handoff peer
// per entry — and an unstable order would make those pairings differ
// between identically seeded runs. The dense index yields this order by
// construction.
func (b *Buffer) Entries() []*Entry {
	return b.idx.sorted(make([]*Entry, 0, b.idx.size()))
}

// Store buffers a message under the configured policy. Storing an
// already-buffered id is a no-op returning the existing entry (duplicate
// repairs are common under multicast). The returned entry is live and,
// like Get's, valid until it is evicted.
//
// Under a ByteBudget, storing may pressure-evict older entries to make
// room; if the payload cannot fit even into an empty buffer the store is
// denied and Store returns nil (counted in DeniedCount). Callers treat a
// denied store like any other absent entry: the message was delivered,
// just not retained.
func (b *Buffer) Store(id wire.MessageID, payload []byte) *Entry {
	if e, ok := b.idx.get(id); ok {
		return e
	}
	if !b.reserve(len(payload)) {
		b.denied++
		return nil
	}
	if b.sh.CopyPayload && payload != nil {
		payload = append([]byte(nil), payload...)
	}
	now := b.sh.Sched.Now()
	e := b.newEntry()
	e.ID = id
	e.Payload = payload
	e.StoredAt = now
	e.LastRequest = now
	e.PromotedAt = -1
	b.idx.put(e)
	b.bytes += len(e.Payload)
	b.occ[0] -= int64(now)
	b.occ[1] -= int64(len(e.Payload)) * int64(now)
	b.peakLen = max(b.peakLen, b.idx.n)
	b.peakBytes = max(b.peakBytes, b.bytes)

	// The store event reaches the policy before Hold is consulted, so a
	// demand-aware hold already reflects this message.
	b.policy.ObserveStore(id, now)
	hold, _ := b.policy.Hold(id)
	if hold > 0 {
		e.timer.Arm(b.sh.Sched, hold, e)
	}
	// hold == 0 means "never idles": retention until external removal
	// (buffer-all / stability-detection baselines).
	return e
}

// StoreLongTerm buffers a message directly in the long-term phase. It is
// used when receiving a handoff from a leaving peer: the transferred copy
// already survived its idle phase at the giver. Duplicate ids keep the
// existing entry but lift it to long-term if it was short-term. Like
// Store, it returns nil when a ByteBudget denies the store.
func (b *Buffer) StoreLongTerm(id wire.MessageID, payload []byte) *Entry {
	if e, ok := b.idx.get(id); ok {
		if e.State() != StateLongTerm {
			b.promote(e)
		}
		return e
	}
	e := b.Store(id, payload)
	if e != nil && e.State() != StateLongTerm {
		b.promote(e)
	}
	return e
}

// OnRequest records that a retransmission request (or any other buffer use,
// such as serving a search) touched id. For feedback-based policies this
// re-arms the idle clock; for long-term entries it re-arms the TTL. It
// returns false if id is not buffered.
func (b *Buffer) OnRequest(id wire.MessageID) bool {
	e, ok := b.idx.get(id)
	if !ok {
		return false
	}
	now := b.sh.Sched.Now()
	e.LastRequest = now
	b.policy.ObserveRequest(id, now)
	return true
}

// Remove evicts id for an externally decided reason (stability detection,
// manual trimming). It returns false if id was not buffered.
func (b *Buffer) Remove(id wire.MessageID, reason EvictReason) bool {
	e, ok := b.idx.get(id)
	if !ok {
		return false
	}
	b.evict(e, reason)
	return true
}

// TakeForHandoff removes and returns all long-term entries, for transfer to
// peers when this member leaves the group voluntarily (§3.2). Short-term
// entries are dropped at the same time: a leaving member no longer answers
// requests. The returned entries are the caller's: the buffer never
// recycles an entry evicted for handoff.
func (b *Buffer) TakeForHandoff() []*Entry {
	var out []*Entry
	for _, e := range b.Entries() {
		if e.State() == StateLongTerm {
			out = append(out, e)
			b.evict(e, EvictHandoff)
		} else {
			b.evict(e, EvictManual)
		}
	}
	return out
}

// Close stops all timers and drops all entries without eviction
// callbacks. Its spares stay with the list, which other buffers may share.
func (b *Buffer) Close() {
	b.idx.each(func(e *Entry) { e.timer.Stop() })
	now := int64(b.sh.Sched.Now())
	b.occ[0] += int64(b.idx.n) * now
	b.occ[1] += int64(b.bytes) * now
	b.idx = denseIndex{}
	b.bytes = 0
}

// OccupancyIntegral returns the buffer's cost up to now, no earlier than
// its last store or eviction (§3.1, Fig. 6): the residences of every copy
// it has held, summed exactly, in message-nanoseconds, and weighted by
// payload size, in byte-nanoseconds. A copy still held counts up to now.
func (b *Buffer) OccupancyIntegral(now time.Duration) (msgNs, byteNs int64) {
	return b.occ[0] + int64(b.idx.n)*int64(now), b.occ[1] + int64(b.bytes)*int64(now)
}

// PeakLen returns the highest entry count ever held.
func (b *Buffer) PeakLen() int { return b.peakLen }

// PeakBytes returns the highest payload-byte occupancy ever held.
func (b *Buffer) PeakBytes() int { return b.peakBytes }

// DeniedCount returns how many stores were refused because their payload
// exceeded the whole ByteBudget. A denied message was still delivered to
// the application; it just was never retained for repair.
func (b *Buffer) DeniedCount() int { return int(b.denied) }

// reserve makes room for need payload bytes under the budget by pressure-
// evicting entries in a deterministic order: short-term entries first,
// longest-idle (oldest LastRequest) leading — they are the cheapest to
// lose, since an idle-quiet region has the message — then long-term
// copies, oldest-promoted first. Ties break on message id, so identically
// seeded runs evict identically. It reports whether need now fits; false
// (possible only when need alone exceeds the budget) means the caller
// must deny the store. No-op without a budget.
//
// Each victim is found by the index's linear minimum scan rather than a
// sorted snapshot: displacement usually removes one or two entries, so the
// scan is O(victims × entries) with zero allocation (no snapshot, no
// closure), keeping budgeted cells on the same no-garbage footing as the
// rest of the store path.
func (b *Buffer) reserve(need int) bool {
	if b.sh.ByteBudget <= 0 || b.bytes+need <= b.sh.ByteBudget {
		return true
	}
	if need > b.sh.ByteBudget {
		return false
	}
	for b.bytes+need > b.sh.ByteBudget {
		victim := b.idx.victim(b.policy)
		if victim == nil {
			break // empty buffer; need fits by the check above
		}
		b.evict(victim, EvictPressure)
	}
	return b.bytes+need <= b.sh.ByteBudget
}

// DefaultDisplacedBefore is the historic strict total displacement order
// pressure eviction follows: short-term entries before long-term, the
// short-term longest-idle (oldest LastRequest) first, long-term copies
// oldest-promoted first, ties broken on message id. A total order makes
// the minimum scan independent of index iteration order, so both index
// implementations evict identically. Policies that do not override
// DisplacedBefore (via PolicyBase) use exactly this order.
func DefaultDisplacedBefore(a, c *Entry) bool {
	if (a.State() == StateLongTerm) != (c.State() == StateLongTerm) {
		return a.State() != StateLongTerm
	}
	if a.State() == StateLongTerm {
		if a.PromotedAt != c.PromotedAt {
			return a.PromotedAt < c.PromotedAt
		}
	} else if a.LastRequest != c.LastRequest {
		return a.LastRequest < c.LastRequest
	}
	if a.ID.Source != c.ID.Source {
		return a.ID.Source < c.ID.Source
	}
	return a.ID.Seq < c.ID.Seq
}

// idleCheck runs when an entry's idle timer fires: if a request arrived in
// the meantime (feedback), re-arm; otherwise ask the policy for the
// idle-time decision.
func (b *Buffer) idleCheck(e *Entry) {
	if cur, ok := b.idx.get(e.ID); !ok || cur != e {
		return // already evicted
	}
	now := b.sh.Sched.Now()
	hold, resetOnRequest := b.policy.Hold(e.ID)
	if resetOnRequest {
		quietFor := now - e.LastRequest
		if quietFor < hold {
			// A request arrived during the hold window: the message is not
			// idle yet. Sleep exactly until the earliest instant it could
			// become idle. Re-arming queues the entry itself — O(1), no
			// closure allocation, however often feedback arrives.
			e.timer.Arm(b.sh.Sched, hold-quietFor, e)
			return
		}
	}
	switch d := b.policy.OnIdle(e.ID, b.rng); d {
	case Discard:
		b.evict(e, EvictIdle)
	case PromoteLongTerm:
		b.promote(e)
	default:
		panic(fmt.Sprintf("core: policy %q returned invalid decision %d", b.policy.Name(), d))
	}
}

// promote moves an entry to the long-term phase and arms its TTL.
func (b *Buffer) promote(e *Entry) {
	e.timer.Stop()
	e.PromotedAt = b.sh.Sched.Now()
	if ttl := b.policy.LongTermTTL(); ttl > 0 {
		e.timer.Arm(b.sh.Sched, ttl, e)
	}
	if b.obs != nil {
		b.obs.Promoted(e)
	}
}

// ttlCheck ages out a long-term entry once it has gone unused for the TTL
// ("eventually even a long-term bufferer may decide to discard an idle
// message", §3.2). A use re-arms, mirroring the idle logic.
func (b *Buffer) ttlCheck(e *Entry) {
	if cur, ok := b.idx.get(e.ID); !ok || cur != e {
		return
	}
	now := b.sh.Sched.Now()
	ttl := b.policy.LongTermTTL()
	unusedFor := now - e.LastRequest
	if unusedFor < ttl {
		e.timer.Arm(b.sh.Sched, ttl-unusedFor, e)
		return
	}
	b.evict(e, EvictTTL)
}

func (b *Buffer) evict(e *Entry, reason EvictReason) {
	e.timer.Stop()
	now := b.sh.Sched.Now()
	b.idx.remove(e.ID)
	b.bytes -= len(e.Payload)
	b.occ[0] += int64(now)
	b.occ[1] += int64(len(e.Payload)) * int64(now)
	if reason != EvictHandoff {
		b.buffering.AddDuration(now - e.StoredAt)
	}
	if reason >= EvictIdle && reason <= EvictPressure {
		b.evicted[reason-1]++
	}
	b.policy.ObserveEvict(e.ID, reason)
	if b.obs != nil {
		b.obs.Evicted(e, reason)
	}
	if reason == EvictHandoff {
		return // the caller keeps it (TakeForHandoff)
	}
	e.Payload = nil // never reused: payload slices are shared with the network and peers
	b.sh.Spares.push(e)
}

// newEntry returns a spare from the free list, or a new entry, in either
// case held by b. The caller sets every exported field.
func (b *Buffer) newEntry() *Entry {
	if e := b.sh.Spares.pop(); e != nil {
		e.buf = b
		return e
	}
	return &Entry{buf: b}
}
