package rrmp

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gossipfd"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// A member's per-message protocol state lives in records of four kinds:
// the message record (msgState) and the episodes it holds, recovery
// (§2.2), searchState (§3.3) and backoff. Every kind follows one idiom:
//
//   - A record comes off its region's free list (Region), or is made
//     when the list is empty. It is its own timers' clock.Firer (through
//     a named pointer type per timer, such as (*localRetry)(rec)), so no
//     arm and no reuse builds a closure.
//   - An episode or back-off is reachable from its message record
//     exactly while it is live. Ending it stops its timers, takes it out
//     of the record and puts it back on the list, zeroed but for a
//     search's origins array; an episode is marked done there, so a
//     retry can tell it is stale.
//   - A message record sits in its source's window (sourceState.recs)
//     while any of its fields is set; every path that clears one passes
//     it to release, which returns an idle record to the list.
//
// A region's members share one list, so at 100k members, where most
// members run about one episode per trial, episodes still reuse one
// another's records.

// Region is everything the members of one region share: every member runs
// the same T, C and n (§3.1–3.2), so the region holds one copy of the
// defaulted Params, the region's and its parent region's member lists
// (every member's View repeats them), the transport its members send
// through, the tracer, the buffers' common settings and spare entries
// (core.Shared, which holds the scheduler of the event loop the region
// runs on) and the paper's two-phase policy for members given no other;
// and its members' buffers fill and go idle together, so it holds
// the free lists their message records and heartbeat tables come from and
// go back to. A region never spans event loops, so one loop touches each
// list. NewRegion builds it once, before its members.
type Region struct {
	params    Params
	transport Transport
	tracer    trace.Tracer
	// members and parents are the View's RegionMembers and ParentMembers,
	// which topology shares across the region's views.
	members, parents []topology.NodeID
	// buffers is what the members' buffers share: the scheduler (the
	// region's, see sched), the byte budget, the copy flag and their spare
	// entries.
	buffers core.Shared
	// policy is the two-phase policy, made by the first member that needs
	// it; it holds only parameters, so the members share it.
	policy *core.TwoPhase
	// heartbeats are the members' failure detectors' spare tables, made by
	// the first member that runs a detector.
	heartbeats *gossipfd.Tables

	msgs     []*msgState
	recs     []*recovery
	searches []*searchState
	backoffs []*backoff
}

// NewRegion builds the region of view's members, running on sched,
// sending through transport, under params (zero fields take defaults) and
// traced to tracer (nil for none). Every member built on it reads these
// through it, so its members cannot disagree on them. It panics on a nil
// sched or transport, programming errors.
func NewRegion(view topology.View, sched clock.Scheduler, transport Transport, params Params, tracer trace.Tracer) *Region {
	if sched == nil {
		panic("rrmp: NewRegion needs a Sched")
	}
	if transport == nil {
		panic("rrmp: NewRegion needs a Transport")
	}
	p := params.withDefaults()
	return &Region{
		params: p, transport: transport, tracer: tracer,
		members: view.RegionMembers, parents: view.ParentMembers,
		buffers: core.Shared{Sched: sched, ByteBudget: p.ByteBudget, CopyPayload: p.CopyOnStore},
	}
}

// sched is the scheduler of the event loop the region runs on.
func (r *Region) sched() clock.Scheduler { return r.buffers.Sched }

// size is the number of members in the region.
func (r *Region) size() int { return max(len(r.members), 1) }

// twoPhase returns the region's two-phase policy, made on first use.
func (r *Region) twoPhase() *core.TwoPhase {
	if r.policy == nil {
		r.policy = core.NewTwoPhase(r.params.IdleThreshold, r.params.C, r.size(), r.params.LongTermTTL)
	}
	return r.policy
}

// heartbeatTables returns the region's heartbeat tables, made on first
// use.
func (r *Region) heartbeatTables() *gossipfd.Tables {
	if r.heartbeats == nil {
		r.heartbeats = gossipfd.NewTables(r.size())
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
	// m and id say whose record this is, for its episodes' timers, which
	// fire the episode records themselves.
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
	// retry budget ran out, until it arrives late or Recover retries it;
	// Member.Unrecovered lists the marked messages.
	unrecovered bool
}

// record returns id's record, or nil if it has none.
func (m *Member) record(id wire.MessageID) *msgState {
	st := m.sources.Find(id.Source)
	if st == nil {
		return nil
	}
	return st.recs.Get(id.Seq)
}

// msg returns id's record, making it if there is none.
func (m *Member) msg(id wire.MessageID) *msgState {
	st := m.sources.Add(id.Source)
	if ms := st.recs.Get(id.Seq); ms != nil {
		return ms
	}
	ms := take(&m.region.msgs)
	if ms == nil {
		ms = new(msgState)
	}
	ms.m, ms.id, ms.bufferer = m, id, topology.NoNode
	st.recs.Put(id.Seq, ms)
	return ms
}

// release returns ms to the free list once nothing about its message is
// in flight.
func (m *Member) release(ms *msgState) {
	if ms.recovery != nil || ms.search != nil || ms.mc != nil || ms.reply != nil ||
		len(ms.waiters) > 0 || ms.bufferer != topology.NoNode || ms.unrecovered {
		return
	}
	m.sources.Find(ms.id.Source).recs.Drop(ms.id.Seq)
	*ms = msgState{}
	m.region.msgs = append(m.region.msgs, ms)
}

// records yields every record the member holds, in (source, seq) order.
// The loop body may release records but must not make one, which could
// slide a window under the walk.
func (m *Member) records(yield func(*msgState) bool) {
	srcs := m.sources.Slots()
	for i := range srcs {
		for _, ms := range srcs[i].State.recs.Slots() {
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
	*b = backoff{}
	m.region.backoffs = append(m.region.backoffs, b)
}

// Fire runs out a back-off. Its record goes back first, so the action
// sees the message's record as it will stay.
func (b *backoff) Fire() {
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
