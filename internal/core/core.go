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

// Entry is one buffered message.
type Entry struct {
	ID      wire.MessageID
	Payload []byte
	// StoredAt is when the message entered this buffer.
	StoredAt time.Duration
	// LastRequest is the last time a retransmission request (or another
	// buffer "use", such as answering a search) touched this entry; it
	// equals StoredAt until the first request.
	LastRequest time.Duration
	// State is the current retention phase.
	State State
	// PromotedAt is when the entry became long-term (zero until then).
	PromotedAt time.Duration

	timer clock.Handle // idle timer in short-term, TTL timer in long-term
	// fire is the entry's timer callback, bound once at Store so re-arming
	// the idle or TTL clock never allocates a new closure. It dispatches on
	// State: short-term entries run the idle check, long-term ones the TTL
	// check.
	fire func()
}

// Config assembles a Buffer's dependencies.
type Config struct {
	// Policy decides retention; use NewTwoPhase for the paper's algorithm.
	Policy Policy
	// Sched supplies time and timers.
	Sched clock.Scheduler
	// Rng drives randomized election. Required by randomized policies.
	Rng *rng.Source
	// OnEvict, if set, observes every eviction.
	OnEvict func(e *Entry, reason EvictReason)
	// OnPromote, if set, observes long-term elections.
	OnPromote func(e *Entry)
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

// Buffer is the per-member message store managed by a buffering policy.
// It is not safe for concurrent use; drive it from one goroutine (the
// simulator loop or a member's executor).
type Buffer struct {
	cfg Config
	idx entryIndex

	occupancy stats.Occupancy // message-count step function over time
	byteOcc   stats.Occupancy // payload-byte step function over time
	bytes     int             // current payload bytes held
	longCount int
	evicted   map[EvictReason]int
	denied    int // stores refused because the payload exceeds ByteBudget
}

// NewBuffer constructs an empty buffer. It panics on a missing policy or
// scheduler since both are programming errors, not runtime conditions.
func NewBuffer(cfg Config) *Buffer {
	if cfg.Policy == nil {
		panic("core: Config.Policy is required")
	}
	if cfg.Sched == nil {
		panic("core: Config.Sched is required")
	}
	return &Buffer{
		cfg:     cfg,
		idx:     newDenseIndex(),
		evicted: make(map[EvictReason]int),
	}
}

// Len returns the number of buffered entries (both phases).
func (b *Buffer) Len() int { return b.idx.size() }

// LongTermCount returns the number of entries in the long-term phase.
func (b *Buffer) LongTermCount() int { return b.longCount }

// ShortTermCount returns the number of entries in the short-term phase.
func (b *Buffer) ShortTermCount() int { return b.idx.size() - b.longCount }

// EvictedCount returns how many entries have been evicted for the reason.
func (b *Buffer) EvictedCount(r EvictReason) int { return b.evicted[r] }

// Has reports whether id is currently buffered.
func (b *Buffer) Has(id wire.MessageID) bool {
	_, ok := b.idx.get(id)
	return ok
}

// Get returns the entry for id if buffered.
func (b *Buffer) Get(id wire.MessageID) (*Entry, bool) {
	return b.idx.get(id)
}

// Entries returns a snapshot of all buffered entries in message-id order
// (callers own the slice; the pointed-to entries remain live). The order is
// deterministic because callers pair entries with rng draws — the leave
// protocol picks a random handoff peer per entry — and an unstable order
// would make those pairings differ between identically seeded runs. The
// dense index yields this order by construction.
func (b *Buffer) Entries() []*Entry {
	return b.idx.sorted(make([]*Entry, 0, b.idx.size()))
}

// Store buffers a message under the configured policy. Storing an
// already-buffered id is a no-op returning the existing entry (duplicate
// repairs are common under multicast). The returned entry is live.
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
	if b.cfg.CopyPayload && payload != nil {
		payload = append([]byte(nil), payload...)
	}
	now := b.cfg.Sched.Now()
	e := &Entry{
		ID:          id,
		Payload:     payload,
		StoredAt:    now,
		LastRequest: now,
		State:       StateShortTerm,
	}
	e.fire = func() {
		if e.State == StateLongTerm {
			b.ttlCheck(e)
		} else {
			b.idleCheck(e)
		}
	}
	b.idx.put(e)
	b.bytes += len(e.Payload)
	b.account(now)

	// The store event reaches the policy before Hold is consulted, so a
	// demand-aware hold already reflects this message.
	b.cfg.Policy.ObserveStore(id, now)
	hold, _ := b.cfg.Policy.Hold(id)
	if hold > 0 {
		e.timer.Arm(b.cfg.Sched, hold, e.fire)
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
		if e.State != StateLongTerm {
			b.promote(e)
		}
		return e
	}
	e := b.Store(id, payload)
	if e != nil && e.State != StateLongTerm {
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
	now := b.cfg.Sched.Now()
	e.LastRequest = now
	b.cfg.Policy.ObserveRequest(id, now)
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
// requests.
func (b *Buffer) TakeForHandoff() []*Entry {
	var out []*Entry
	for _, e := range b.Entries() {
		if e.State == StateLongTerm {
			out = append(out, e)
			b.evict(e, EvictHandoff)
		} else {
			b.evict(e, EvictManual)
		}
	}
	return out
}

// Close stops all timers and drops all entries without eviction callbacks.
func (b *Buffer) Close() {
	b.idx.each(func(e *Entry) { e.timer.Stop() })
	b.idx.reset()
	b.longCount = 0
	b.bytes = 0
	b.account(b.cfg.Sched.Now())
}

// OccupancyIntegral returns the accumulated messages × seconds up to now;
// the A1 ablation compares policies on this buffer-cost measure.
func (b *Buffer) OccupancyIntegral(now time.Duration) float64 {
	return b.occupancy.Integral(now)
}

// ByteOccupancyIntegral returns accumulated payload-bytes × seconds.
func (b *Buffer) ByteOccupancyIntegral(now time.Duration) float64 {
	return b.byteOcc.Integral(now)
}

// PeakLen returns the highest entry count ever held.
func (b *Buffer) PeakLen() int { return int(b.occupancy.Peak()) }

// Bytes returns the payload bytes currently held.
func (b *Buffer) Bytes() int { return b.bytes }

// PeakBytes returns the highest payload-byte occupancy ever held.
func (b *Buffer) PeakBytes() int { return int(b.byteOcc.Peak()) }

// DeniedCount returns how many stores were refused because their payload
// exceeded the whole ByteBudget. A denied message was still delivered to
// the application; it just was never retained for repair.
func (b *Buffer) DeniedCount() int { return b.denied }

// reserve makes room for need payload bytes under the budget by pressure-
// evicting entries in a deterministic order: short-term entries first,
// longest-idle (oldest LastRequest) leading — they are the cheapest to
// lose, since an idle-quiet region has the message — then long-term
// copies, oldest-promoted first. Ties break on message id, so identically
// seeded runs evict identically. It reports whether need now fits; false
// (possible only when need alone exceeds the budget) means the caller
// must deny the store. No-op without a budget.
//
// Each victim is found by a linear minimum scan rather than a sorted
// snapshot: displacement usually removes one or two entries, so the scan
// is O(victims × entries) with zero allocation, keeping budgeted cells on
// the same no-garbage footing as the rest of the store path.
func (b *Buffer) reserve(need int) bool {
	if b.cfg.ByteBudget <= 0 || b.bytes+need <= b.cfg.ByteBudget {
		return true
	}
	if need > b.cfg.ByteBudget {
		return false
	}
	for b.bytes+need > b.cfg.ByteBudget {
		var victim *Entry
		b.idx.each(func(e *Entry) {
			if victim == nil || b.cfg.Policy.DisplacedBefore(e, victim) {
				victim = e
			}
		})
		if victim == nil {
			break // empty buffer; need fits by the check above
		}
		b.evict(victim, EvictPressure)
	}
	return b.bytes+need <= b.cfg.ByteBudget
}

// DefaultDisplacedBefore is the historic strict total displacement order
// pressure eviction follows: short-term entries before long-term, the
// short-term longest-idle (oldest LastRequest) first, long-term copies
// oldest-promoted first, ties broken on message id. A total order makes
// the minimum scan independent of index iteration order, so both index
// implementations evict identically. Policies that do not override
// DisplacedBefore (via PolicyBase) use exactly this order.
func DefaultDisplacedBefore(a, c *Entry) bool {
	if (a.State == StateLongTerm) != (c.State == StateLongTerm) {
		return a.State != StateLongTerm
	}
	if a.State == StateLongTerm {
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
	now := b.cfg.Sched.Now()
	hold, resetOnRequest := b.cfg.Policy.Hold(e.ID)
	if resetOnRequest {
		quietFor := now - e.LastRequest
		if quietFor < hold {
			// A request arrived during the hold window: the message is not
			// idle yet. Sleep exactly until the earliest instant it could
			// become idle. Re-arming reuses the entry's bound callback —
			// O(1), no closure allocation, however often feedback arrives.
			e.timer.Arm(b.cfg.Sched, hold-quietFor, e.fire)
			return
		}
	}
	switch d := b.cfg.Policy.OnIdle(e.ID, b.cfg.Rng); d {
	case Discard:
		b.evict(e, EvictIdle)
	case PromoteLongTerm:
		b.promote(e)
	default:
		panic(fmt.Sprintf("core: policy %q returned invalid decision %d", b.cfg.Policy.Name(), d))
	}
}

// promote moves an entry to the long-term phase and arms its TTL.
func (b *Buffer) promote(e *Entry) {
	e.timer.Stop()
	e.State = StateLongTerm
	e.PromotedAt = b.cfg.Sched.Now()
	b.longCount++
	if ttl := b.cfg.Policy.LongTermTTL(); ttl > 0 {
		e.timer.Arm(b.cfg.Sched, ttl, e.fire)
	}
	if b.cfg.OnPromote != nil {
		b.cfg.OnPromote(e)
	}
}

// ttlCheck ages out a long-term entry once it has gone unused for the TTL
// ("eventually even a long-term bufferer may decide to discard an idle
// message", §3.2). A use re-arms, mirroring the idle logic.
func (b *Buffer) ttlCheck(e *Entry) {
	if cur, ok := b.idx.get(e.ID); !ok || cur != e {
		return
	}
	now := b.cfg.Sched.Now()
	ttl := b.cfg.Policy.LongTermTTL()
	unusedFor := now - e.LastRequest
	if unusedFor < ttl {
		e.timer.Arm(b.cfg.Sched, ttl-unusedFor, e.fire)
		return
	}
	b.evict(e, EvictTTL)
}

func (b *Buffer) evict(e *Entry, reason EvictReason) {
	e.timer.Stop()
	b.idx.remove(e.ID)
	b.bytes -= len(e.Payload)
	if e.State == StateLongTerm {
		b.longCount--
	}
	b.evicted[reason]++
	b.cfg.Policy.ObserveEvict(e.ID, reason)
	b.account(b.cfg.Sched.Now())
	if b.cfg.OnEvict != nil {
		b.cfg.OnEvict(e, reason)
	}
}

func (b *Buffer) account(now time.Duration) {
	b.occupancy.Set(now, float64(b.idx.size()))
	b.byteOcc.Set(now, float64(b.bytes))
}
