package rrmp

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gossipfd"
	"repro/internal/topology"
	"repro/internal/wire"
)

// A member's per-message protocol state lives in records of four kinds:
// the message record (msgState) and the episodes it holds, recovery
// (§2.2), searchState (§3.3) and backoff. Every kind follows one idiom:
//
//   - A record comes off its region's free list (Region), or is made
//     when the list is empty; only then are its timer callbacks bound, as
//     method values that reach the member through the record, so no arm
//     and no reuse builds a closure.
//   - An episode or back-off is reachable from its message record
//     exactly while it is live. Ending it stops its timers, takes it out
//     of the record and puts it back on the list, zeroed but for its
//     callbacks (and a search's origins array); an episode is marked done
//     there, so a retry can tell it is stale.
//   - A message record sits in its source's window while any of its
//     fields is set; every path that clears one passes it to release,
//     which returns an idle record to the list.
//
// A region's members share one list, so at 100k members, where most
// members run about one episode per trial, episodes still reuse one
// another's records.

// Region is everything the members of one region share: every member runs
// the same T, C and n (§3.1–3.2), so the region holds one copy of the
// defaulted Params, the scheduler of the event loop it runs on, and the
// paper's two-phase policy for members given no other; and its members'
// buffers fill and go idle together, so it holds the free lists their
// message records, buffer entries and heartbeat tables come from and go
// back to. A region never spans event loops, so one loop touches each
// list.
//
// The zero Region is ready to use. The first member built on it binds its
// Params, Sched and region size; a later member that brings other ones is
// a programming error, and NewMember panics.
type Region struct {
	params Params
	sched  clock.Scheduler
	size   int
	// policy is the two-phase policy, made by the first member that needs
	// it; it holds only parameters, so the members share it.
	policy *core.TwoPhase
	// entries are the members' buffers' spare entries (core.Spares).
	entries core.Spares
	// heartbeats are the members' failure detectors' spare tables, made by
	// the first member that runs a detector.
	heartbeats *gossipfd.Tables

	msgs     []*msgState
	recs     []*recovery
	searches []*searchState
	backoffs []*backoff
}

// join binds r to its first member's defaulted Params, scheduler and
// region size, and checks every later member's against them.
func (r *Region) join(p Params, sched clock.Scheduler, size int) {
	if r.sched == nil {
		r.params, r.sched, r.size = p, sched, size
		return
	}
	if p != r.params || sched != r.sched || size != r.size {
		panic("rrmp: the members of a Region must bring equal Params, one Sched and one region size")
	}
}

// twoPhase returns the region's two-phase policy, made on first use.
func (r *Region) twoPhase() *core.TwoPhase {
	if r.policy == nil {
		r.policy = core.NewTwoPhase(r.params.IdleThreshold, r.params.C, r.size, r.params.LongTermTTL)
	}
	return r.policy
}

// heartbeatTables returns the region's heartbeat tables, made on first
// use.
func (r *Region) heartbeatTables() *gossipfd.Tables {
	if r.heartbeats == nil {
		r.heartbeats = gossipfd.NewTables(r.size)
	}
	return r.heartbeats
}

// take pops a record off free, or returns nil if there is none.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// msgState is all a member keeps about one message while any of it is in
// flight. A record exists only while one of its fields past id is set:
// every path that clears one and may leave the record idle passes it to
// release.
type msgState struct {
	// m and id say whose record this is, for the callbacks of its
	// episodes, which are bound once per record and not per member.
	m  *Member
	id wire.MessageID
	// The live §2.2 recovery and §3.3 search episodes, and the back-offs
	// of the regional repair multicast and of a multicast-query reply.
	recovery  *recovery
	search    *searchState
	mc, reply *backoff
	// waiters are the remote requesters to relay the message to (§2.2).
	waiters []topology.NodeID
	// bufferer is the sender of the last HAVE, or topology.NoNode: a
	// search starting after the terminating HAVE routes straight to it
	// instead of re-igniting the random walk.
	bufferer topology.NodeID
	// unrecovered marks a message whose recovery was abandoned after every
	// retry budget ran out, until it arrives late. See
	// Metrics.Unrecoverable.
	unrecovered bool
}

// record returns id's record, or nil if it has none.
func (m *Member) record(id wire.MessageID) *msgState {
	i, ok := m.findSource(id.Source)
	if !ok {
		return nil
	}
	return m.sources[i].record(id.Seq)
}

// msg returns id's record, making it if there is none.
func (m *Member) msg(id wire.MessageID) *msgState {
	st := m.source(id.Source)
	if ms := st.record(id.Seq); ms != nil {
		return ms
	}
	ms := take(&m.region.msgs)
	if ms == nil {
		ms = new(msgState)
	}
	ms.m, ms.id, ms.bufferer = m, id, topology.NoNode
	st.put(id.Seq, ms)
	return ms
}

// release returns ms to the free list once nothing about its message is
// in flight.
func (m *Member) release(ms *msgState) {
	if ms.recovery != nil || ms.search != nil || ms.mc != nil || ms.reply != nil ||
		len(ms.waiters) > 0 || ms.bufferer != topology.NoNode || ms.unrecovered {
		return
	}
	i, _ := m.findSource(ms.id.Source)
	m.sources[i].drop(ms.id.Seq)
	*ms = msgState{}
	m.region.msgs = append(m.region.msgs, ms)
}

// records yields every record the member holds, in (source, seq) order.
// The loop body may release records but must not make one, which could
// slide a window under the walk.
func (m *Member) records(yield func(*msgState) bool) {
	for _, st := range m.sources {
		for _, ms := range st.back {
			if ms != nil && !yield(ms) {
				return
			}
		}
	}
}

// backoff is a randomized delay a peer's copy can suppress: the regional
// multicast of a remotely received repair (§2.2, msgState.mc), or a
// holder's reply to a multicast query (§3.3's rejected design,
// msgState.reply).
type backoff struct {
	ms    *msgState
	timer clock.Handle
	// fire is the timer's callback, bound once when the record is made.
	fire func()
	// payload is the repair an mc back-off multicasts.
	payload []byte
	// origin and querier are a reply's remote requester and the member
	// that multicast the query.
	origin, querier topology.NodeID
}

// newBackoff puts a back-off for ms in slot (&ms.mc or &ms.reply), taking
// its record off the free list; the caller fills it in and arms it.
func (m *Member) newBackoff(ms *msgState, slot **backoff) *backoff {
	b := take(&m.region.backoffs)
	if b == nil {
		b = new(backoff)
		b.fire = b.expire
	}
	b.ms = ms
	*slot = b
	return b
}

// endBackoff stops b, takes it out of its message's record and puts it
// back on the free list; the caller releases the record.
func (m *Member) endBackoff(b *backoff) {
	b.timer.Stop()
	if b.ms.mc == b {
		b.ms.mc = nil
	} else {
		b.ms.reply = nil
	}
	*b = backoff{fire: b.fire}
	m.region.backoffs = append(m.region.backoffs, b)
}

// expire runs out a back-off. Its record goes back first, so the action
// sees the message's record as it will stay.
func (b *backoff) expire() {
	ms := b.ms
	m, id, mc := ms.m, ms.id, ms.mc == b
	payload, origin, querier := b.payload, b.origin, b.querier
	m.endBackoff(b)
	m.release(ms)
	if mc {
		m.regionalMulticast(id, payload)
	} else {
		m.queryReply(id, origin, querier)
	}
}

// window is a source's message records: back[i] is the record of
// sequence base+i, or nil. A drop only clears its slot. A put past either
// end moves the records in flight to the start of back when they and the
// new one fit there, and only otherwise grows back, geometrically (core's
// srcSlot keeps buffer entries the same way). So the window spans about
// the records in flight, not the source's history.
type window struct {
	base uint64
	back []*msgState // len(back) == cap(back)
}

// record returns seq's record, or nil.
func (w *window) record(seq uint64) *msgState {
	if i := seq - w.base; i < uint64(len(w.back)) { // seq < base wraps past len
		return w.back[i]
	}
	return nil
}

// put places ms in seq's slot, which is empty.
func (w *window) put(seq uint64, ms *msgState) {
	if i := seq - w.base; i < uint64(len(w.back)) {
		w.back[i] = ms
		return
	}
	// The span of records in flight, back[lo:hi], and the sequences the
	// window must now cover, first..last.
	lo, hi := 0, len(w.back)
	for lo < hi && w.back[lo] == nil {
		lo++
	}
	for hi > lo && w.back[hi-1] == nil {
		hi--
	}
	first, last, shift := seq, seq, uint64(0) // shift: where back[lo] moves to
	if lo < hi {
		first, last = min(seq, w.base+uint64(lo)), max(seq, w.base+uint64(hi-1))
		shift = w.base + uint64(lo) - first
	}
	if n := last - first + 1; n <= uint64(len(w.back)) {
		live := copy(w.back[shift:], w.back[lo:hi])
		clear(w.back[:shift])
		clear(w.back[shift+uint64(live):])
	} else {
		grown := make([]*msgState, max(n, 2*uint64(len(w.back))))
		copy(grown[shift:], w.back[lo:hi])
		w.back = grown
	}
	w.base = first
	w.back[seq-first] = ms
}

// drop empties seq's slot, which holds a record.
func (w *window) drop(seq uint64) { w.back[seq-w.base] = nil }
