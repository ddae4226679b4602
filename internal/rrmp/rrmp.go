// Package rrmp implements the Randomized Reliable Multicast Protocol engine
// the paper builds its buffer management on: randomized local and remote
// error recovery (§2), feedback-based two-phase buffering (§3, via
// internal/core), the search-for-bufferer protocol (§3.3), and long-term
// buffer handoff on voluntary leave (§3.2).
//
// A Member is a single-threaded state machine driven by Receive (incoming
// PDUs) and timers from an injected clock.Scheduler. It performs I/O only
// through the Transport interface. In simulation, thousands of members run
// interleaved on one goroutine over virtual time.
package rrmp

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gossipfd"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Each member derives its components' private streams off its own source
// with fixed labels (ASCII mnemonics), so buffer elections and failure
// detection never perturb the member's protocol draws.
const (
	// bufferStreamLabel: "bufferng" — the buffer's election stream.
	bufferStreamLabel = 0x6275666665726e67
	// gossipFDStreamLabel: "gossipfd" — the failure detector's stream.
	gossipFDStreamLabel = 0x676f737369706664
	// policyStreamLabel: "policyrg" — the private stream bound to policies
	// implementing core.RngBinder (demand-aware election draws). Deriving
	// it never advances the parent, so members running legacy policies
	// draw identically whether or not this label exists.
	policyStreamLabel = 0x706f6c6963797267
)

// Transport lets members send PDUs. A region's members share one (Region),
// so every method names the member sending. Implementations must deliver
// asynchronously (never call back into a member synchronously from Send),
// which the simulator's network guarantees.
type Transport interface {
	// Send transmits msg from one member to one peer.
	Send(from, to topology.NodeID, msg wire.Message)
	// Multicast transmits msg from one member to every member of targets
	// except the sender itself, in target order (a region fan-out).
	Multicast(from topology.NodeID, targets []topology.NodeID, msg wire.Message)
	// Broadcast transmits msg from one member to the entire multicast
	// group (the initial IP multicast). Only the sender uses this.
	Broadcast(from topology.NodeID, msg wire.Message)
}

// Hooks are optional experiment/instrumentation callbacks. All hooks run
// synchronously on the member's executor.
type Hooks struct {
	// OnDeliver fires once per distinct data message delivered.
	OnDeliver func(id wire.MessageID, at time.Duration)
	// OnEvict is told of each eviction from the member's buffer, as
	// core.Observer.Evicted is; the *Entry is valid only during the call.
	OnEvict func(e *core.Entry, reason core.EvictReason)
	// OnPromote is told of each long-term election, as
	// core.Observer.Promoted is. A member whose hooks set neither OnEvict
	// nor OnPromote has no buffer observer.
	OnPromote func(e *core.Entry)
	// OnSearchResolved fires when this member sends a repair to a remote
	// requester, either straight from its buffer or at the end of a search
	// episode (§3.3). Figure 8/9 measure the time between remote-request
	// arrival and this event.
	OnSearchResolved func(id wire.MessageID, origin topology.NodeID)
	// OnRecovered fires when a message loss detected at this member is
	// repaired; latency is recover-time minus detect-time.
	OnRecovered func(id wire.MessageID, latency time.Duration)
}

// Config assembles a member. What the member shares with its region
// (the scheduler, the transport, the Params and the tracer) its Region
// holds.
type Config struct {
	// View is this member's partial group knowledge (own region + parent
	// region, §2.1).
	View topology.View
	// Rng is this member's private randomness stream; required.
	Rng *rng.Source
	// Policy overrides the buffering policy. Nil selects the paper's
	// two-phase policy built from the region's Params.
	Policy core.Policy
	// Hooks are optional instrumentation callbacks.
	Hooks Hooks
	// Region is what the member shares with the rest of its region, built
	// by NewRegion from a View of it; required.
	Region *Region
}

// any reports whether any hook is set.
func (h *Hooks) any() bool {
	return h.OnDeliver != nil || h.OnEvict != nil || h.OnPromote != nil ||
		h.OnSearchResolved != nil || h.OnRecovered != nil
}

// Evicted implements core.Observer: it calls OnEvict, if set.
func (h *Hooks) Evicted(e *core.Entry, r core.EvictReason) {
	if h.OnEvict != nil {
		h.OnEvict(e, r)
	}
}

// Promoted implements core.Observer: it calls OnPromote, if set.
func (h *Hooks) Promoted(e *core.Entry) {
	if h.OnPromote != nil {
		h.OnPromote(e)
	}
}

// sourceState tracks per-sender reception: the highest sequence observed
// and the set of sequences ever received (which outlives buffer eviction —
// "received but discarded" is a distinct protocol state, §3.3), beside the
// window of records of that sender's messages in flight.
type sourceState struct {
	maxSeen uint64
	wire.SeqSet
	recs wire.SeqWindow[msgState]
}

// coldState is what a member holds that most scenarios never touch: its
// instrumentation hooks, its failure detector and the metrics only churn
// and faults move. A member makes it on first use (Member.coldState), so
// a member with no hooks and no detector that never leaves, suspects a
// peer or recovers from a crash holds one nil pointer for all of it.
type coldState struct {
	hooks  Hooks
	fd     *gossipfd.Detector
	faults FaultMetrics
}

// noCopy makes vet's copylocks check flag a copied Member: a member
// points into itself (its source table at first, its buffer at bufRng and
// its own index), so a copy would share the original's state.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Member is one RRMP group member. Not safe for concurrent use; drive it
// from a single goroutine.
//
// A member holds by value what only it owns: its buffer, the buffer's rng
// stream and the first source's reception state, so runner.NewCluster
// builds a whole group's members in one slab. What its region's members
// share (the View's member lists, the transport, the Params, the
// scheduler, the tracer, the buffers' common settings and the free lists)
// it reads through its Region, and what few members touch (hooks, a
// failure detector, churn and fault metrics) through its coldState.
type Member struct {
	_   noCopy
	rng *rng.Source
	// region is what the member shares with the rest of its region (see
	// Region).
	region *Region
	// cold is made on first use (coldState); nil until then.
	cold *coldState

	buf    core.Buffer
	bufRng rng.Source // the buffer's election stream
	// sources is every sender's reception state, the first one's inline.
	sources wire.SourceTable[sourceState]
	// served records when this member last repaired a given (message,
	// origin) pair from a search, so the burst of in-flight SEARCH PDUs
	// that race the terminating HAVE does not each trigger another repair.
	// Made on first use (markServed).
	served map[servedKey]time.Duration

	metrics Metrics
	// selfIdx is the member's place in its region's member list
	// (Region.members), which names it (self).
	selfIdx int32
	left    bool
	crashed bool
}

// Init makes the zero Member m a member of cfg.Region, in place; a member
// never moves once made. It panics on a missing Rng (a programming error).
func (m *Member) Init(cfg Config) {
	if cfg.Rng == nil {
		panic("rrmp: Config.Rng is required")
	}
	region := cfg.Region
	m.selfIdx = int32(cfg.View.SelfIdx)
	m.rng, m.region = cfg.Rng, region
	var obs core.Observer // nil unless a hook watches the buffer
	if cfg.Hooks.any() {
		h := &m.coldState().hooks
		*h = cfg.Hooks
		if h.OnEvict != nil || h.OnPromote != nil {
			obs = h
		}
	}

	policy := cfg.Policy
	if policy == nil {
		policy = region.twoPhase()
	}
	if binder, ok := policy.(core.RngBinder); ok {
		binder.BindRng(cfg.Rng.Split(policyStreamLabel))
	}
	cfg.Rng.SplitInto(bufferStreamLabel, &m.bufRng)
	m.buf.Init(&region.buffers, policy, &m.bufRng, obs)
	if region.params.FDEnabled && cfg.View.NumPeers() > 0 {
		fd := gossipfd.New(gossipfd.Config{
			View:      cfg.View,
			Sched:     region.sched(),
			Rng:       cfg.Rng.Split(gossipFDStreamLabel),
			Send:      m.send,
			OnSuspect: m.onSuspect,
			OnRestore: m.onRestore,
			Tables:    region.heartbeatTables(),
		})
		m.coldState().fd = fd
		fd.Start()
	}
}

// coldState returns the member's cold state, making it on first use.
func (m *Member) coldState() *coldState {
	if m.cold == nil {
		m.cold = new(coldState)
	}
	return m.cold
}

// hooks returns the member's hooks, or nil when it has none.
func (m *Member) hooks() *Hooks {
	if m.cold == nil {
		return nil
	}
	return &m.cold.hooks
}

// detector returns the member's failure detector, or nil when it runs
// none (Params.FDEnabled), in which case every peer counts as live.
func (m *Member) detector() *gossipfd.Detector {
	if m.cold == nil {
		return nil
	}
	return m.cold.fd
}

// self is the member's node id.
func (m *Member) self() topology.NodeID { return m.region.members[m.selfIdx] }

// send transmits msg from the member to one peer.
func (m *Member) send(to topology.NodeID, msg wire.Message) {
	m.region.transport.Send(m.self(), to, msg)
}

// multicast transmits msg from the member to the rest of its region.
func (m *Member) multicast(msg wire.Message) {
	m.region.transport.Multicast(m.self(), m.region.members, msg)
}

// onSuspect reacts to the failure detector marking a peer dead: cached
// bufferer pointers at the suspect are dropped so in-flight searches fall
// back to the random walk instead of probing a corpse.
func (m *Member) onSuspect(n topology.NodeID) {
	m.coldState().faults.Suspects.Inc()
	for ms := range m.records {
		if ms.bufferer == n {
			ms.bufferer = topology.NoNode
			m.release(ms)
		}
	}
	m.trace(trace.Event{Kind: trace.Suspect, Peer: n})
}

func (m *Member) onRestore(n topology.NodeID) {
	m.trace(trace.Event{Kind: trace.Restore, Peer: n})
}

// peerLive reports whether the failure detector considers n alive. With
// no detector every peer is live, preserving the pre-FD protocol exactly.
func (m *Member) peerLive(n topology.NodeID) bool {
	fd := m.detector()
	return fd == nil || !fd.Suspected(n)
}

// inOwnRegion reports whether n is a member of this member's own region
// (Self included). The topology gives a region one dense ascending ID
// range (topology.View.RegionMembers), so membership is a check against
// its ends: a region-sized set per member would be exactly the
// O(members × region size) setup cost the 1M-member path cannot afford.
func (m *Member) inOwnRegion(n topology.NodeID) bool {
	rm := m.region.members
	return n >= rm[0] && n <= rm[len(rm)-1]
}

// randomPeer draws one uniformly random region peer with a single rng
// draw; ok is false only when the member is alone in its region (no draw
// then). With the failure detector on the pick is the detector's own, so
// requests, search hops and handoffs route around crashed members: live
// peers only, or the full static view if it suspects everyone (e.g. right
// after this member's own outage) — probing a possibly-dead peer beats
// deadlocking on an empty candidate set. Without it, every peer of the
// shared view is a candidate. Neither branch allocates.
func (m *Member) randomPeer() (topology.NodeID, bool) {
	if fd := m.detector(); fd != nil {
		return fd.PickPeer(m.rng)
	}
	rm := m.region.members
	if len(rm) < 2 {
		return topology.NoNode, false
	}
	return rm[m.rng.Pick(len(rm), int(m.selfIdx))], true
}

// Buffer exposes the member's message buffer (read-mostly; experiments
// sample occupancy and long-term counts).
func (m *Member) Buffer() *core.Buffer { return &m.buf }

// Metrics returns the member's live metrics.
func (m *Member) Metrics() *Metrics { return &m.metrics }

// Faults returns the member's churn and fault metrics: zero unless it
// left with long-term copies, suspected a peer or recovered from a crash.
func (m *Member) Faults() FaultMetrics {
	if m.cold == nil {
		return FaultMetrics{}
	}
	return m.cold.faults
}

// Left reports whether the member has left the group.
func (m *Member) Left() bool { return m.left }

// HasReceived reports whether id was ever delivered to this member
// (it may since have been discarded from the buffer).
func (m *Member) HasReceived(id wire.MessageID) bool {
	st := m.sources.Find(id.Source)
	return st != nil && st.Has(id.Seq)
}

// Prefix returns the contiguous received prefix for src: the largest k such
// that every sequence in [1, k] has been received. Stability detection
// baselines gossip this value as their message-history digest.
func (m *Member) Prefix(src topology.NodeID) uint64 {
	st := m.sources.Find(src)
	if st == nil {
		return 0
	}
	return st.Prefix()
}

// Receive dispatches one incoming PDU, as ReceivePacket does for a packet
// from the network. A heartbeat's Counters are handed to the failure
// detector for reuse, so they must be this member's alone.
func (m *Member) Receive(from topology.NodeID, msg wire.Message) { m.receive(from, &msg) }

// receive is the single entry point for network input. msg is borrowed:
// netsim lends one message to every target of a multicast, so nothing here
// keeps the pointer or writes through it. The slices it references may be
// kept (a payload is stored, a unicast heartbeat's Counters are recycled).
func (m *Member) receive(from topology.NodeID, msg *wire.Message) {
	if m.left || m.crashed {
		if msg.Type == wire.TypeHeartbeat {
			m.recycleTable(msg.Counters) // spent, though nobody merges it
		}
		return
	}
	switch msg.Type {
	case wire.TypeData:
		m.onData(msg)
	case wire.TypeSession:
		m.onSession(msg)
	case wire.TypeLocalRequest:
		m.onLocalRequest(from, msg)
	case wire.TypeRemoteRequest:
		m.onRemoteRequest(from, msg)
	case wire.TypeRepair:
		m.onRepair(from, msg)
	case wire.TypeSearch:
		m.onSearch(from, msg)
	case wire.TypeQuery:
		m.onQuery(from, msg)
	case wire.TypeHave:
		m.onHave(from, msg)
	case wire.TypeHandoff:
		m.onHandoff(from, msg)
	case wire.TypeHeartbeat:
		if fd := m.detector(); fd != nil {
			fd.Receive(*msg)
		}
		m.recycleTable(msg.Counters)
	default:
		// Unknown/baseline-only PDUs are ignored by the RRMP engine.
		m.trace(trace.Event{Kind: trace.Ignore, Peer: from, N: int32(msg.Type)})
	}
}

// recycleTable hands a spent heartbeat's table to the failure detector,
// whose region reuses it for a later heartbeat (gossipfd.Tables).
func (m *Member) recycleTable(counters []uint64) {
	if fd := m.detector(); fd != nil {
		fd.Recycle(counters)
	}
}

// onData handles the sender's initial multicast.
func (m *Member) onData(msg *wire.Message) {
	m.deliver(msg.ID, msg.Payload, msg.From)
}

// onSession advances loss detection to the sender's announced top sequence
// (§2.1: session messages catch the loss of the last message in a burst).
func (m *Member) onSession(msg *wire.Message) {
	m.noteTop(msg.From, msg.TopSeq)
}

// onLocalRequest answers a local-recovery NAK if the message is buffered;
// otherwise the request is ignored (§2.2). Either way the request is
// feedback for the buffering algorithm when the entry exists (§3.1).
func (m *Member) onLocalRequest(from topology.NodeID, msg *wire.Message) {
	m.metrics.LocalReqRecv.Inc()
	e, ok := m.buf.Get(msg.ID)
	if !ok {
		return // §2.2: "Otherwise it ignores the request."
	}
	m.buf.OnRequest(msg.ID)
	m.sendRepair(from, e)
}

// onRemoteRequest implements §3.3's three cases: buffered → repair;
// never received → record waiter; received-but-discarded → search.
func (m *Member) onRemoteRequest(from topology.NodeID, msg *wire.Message) {
	m.metrics.RemoteReqRecv.Inc()
	id := msg.ID
	if e, ok := m.buf.Get(id); ok {
		m.buf.OnRequest(id)
		m.sendRepair(from, e)
		m.resolveSearch(id, from) // request landed on a holder: search time 0
		return
	}
	st := m.sources.Add(id.Source)
	if !st.Has(id.Seq) {
		// Never received: remember the requester and relay on receipt.
		m.addWaiter(id, from)
		m.noteTop(id.Source, id.Seq)
		return
	}
	// Received but discarded: search the region for a bufferer.
	m.startSearch(id, from)
}

// onRepair handles a retransmission: deliver it, and if it arrived from a
// remote region, multicast it into the local region so members sharing the
// loss receive it (§2.2).
func (m *Member) onRepair(from topology.NodeID, msg *wire.Message) {
	fromLocal := m.inOwnRegion(from)
	isNew := m.deliver(msg.ID, msg.Payload, from)
	switch {
	case isNew && !fromLocal:
		m.scheduleRegionalMulticast(msg.ID, msg.Payload)
	case fromLocal:
		// Seeing the repair multicast by a local peer suppresses our own
		// pending regional multicast of the same message.
		if ms := m.record(msg.ID); ms != nil && ms.mc != nil {
			m.endBackoff(ms.mc)
			m.release(ms)
		}
	}
}

// onHandoff accepts a long-term buffer transfer from a leaving peer (§3.2).
func (m *Member) onHandoff(_ topology.NodeID, msg *wire.Message) {
	id := msg.ID
	st := m.sources.Add(id.Source)
	if !st.Has(id.Seq) {
		// The transfer doubles as a delivery if we never had the message.
		m.deliver(id, msg.Payload, msg.From)
	}
	m.buf.StoreLongTerm(id, msg.Payload)
	m.trace(trace.Event{Kind: trace.HandoffRecv, ID: id})
}

// deliver records a received message, stores it per the buffering policy,
// completes any recovery, relays to waiters, and satisfies searches. It
// returns false for duplicates.
func (m *Member) deliver(id wire.MessageID, payload []byte, from topology.NodeID) bool {
	st := m.sources.Add(id.Source)
	if st.Has(id.Seq) {
		m.metrics.Duplicates.Inc()
		return false
	}
	st.Mark(id.Seq)
	now := m.region.sched().Now()

	m.buf.Store(id, payload)
	m.metrics.Delivered.Inc()
	m.trace(trace.Event{Kind: trace.Deliver, ID: id, Peer: from})

	if ms := st.recs.Get(id.Seq); ms != nil {
		// Complete an in-flight recovery.
		if rec := ms.recovery; rec != nil {
			latency, rerecovery := now-rec.detectedAt, rec.rerecovery
			m.endRecovery(rec)
			m.metrics.RecoveryLatency.AddDuration(latency)
			if rerecovery {
				m.coldState().faults.ReRecoveryLatency.AddDuration(latency)
			}
			if h := m.hooks(); h != nil && h.OnRecovered != nil {
				h.OnRecovered(id, latency)
			}
		}

		// A message given up on can still arrive — a peer's regional repair
		// multicast, a handoff, a very late retransmission. It is then no
		// longer lost.
		ms.unrecovered = false

		// Relay to downstream members recorded as waiting (§2.2). The repair
		// is built from the in-hand payload, not the buffer: under a byte
		// budget the store above may have been denied (or instantly
		// displaced), and the waiters deserve the message either way.
		ws := ms.waiters
		ms.waiters = nil
		m.release(ms)
		for _, w := range ws {
			m.sendRepairPayload(w, id, payload, false)
		}
	}

	// Detect gaps below this sequence number.
	m.noteTop(id.Source, id.Seq)

	if h := m.hooks(); h != nil && h.OnDeliver != nil {
		h.OnDeliver(id, now)
	}
	return true
}

// sendRepair transmits a buffered entry to one peer.
func (m *Member) sendRepair(to topology.NodeID, e *core.Entry) {
	m.sendRepairPayload(to, e.ID, e.Payload, e.State() == core.StateLongTerm)
}

// sendRepairPayload transmits a repair from an in-hand payload, for paths
// where the message need not (or no longer) be buffered locally.
func (m *Member) sendRepairPayload(to topology.NodeID, id wire.MessageID, payload []byte, longTerm bool) {
	m.metrics.RepairsSent.Inc()
	m.send(to, wire.Message{
		Type:     wire.TypeRepair,
		From:     m.self(),
		ID:       id,
		Payload:  payload,
		LongTerm: longTerm,
	})
}

// scheduleRegionalMulticast multicasts a remotely repaired message into the
// local region, optionally after a randomized back-off that lets concurrent
// receivers suppress duplicates (§2.2, [14]).
func (m *Member) scheduleRegionalMulticast(id wire.MessageID, payload []byte) {
	if len(m.region.members) < 2 {
		return
	}
	if m.region.params.RepairBackoffMax <= 0 {
		m.regionalMulticast(id, payload)
		return
	}
	// A message is new to a member once, so no back-off is pending yet.
	ms := m.msg(id)
	b := m.newBackoff(ms, &ms.mc)
	b.payload = payload
	delay := time.Duration(m.rng.Uint64n(uint64(m.region.params.RepairBackoffMax))) + 1
	b.timer.Arm(m.region.sched(), delay, b)
}

func (m *Member) regionalMulticast(id wire.MessageID, payload []byte) {
	m.metrics.RegionalMulticasts.Inc()
	m.trace(trace.Event{Kind: trace.RegionMC, ID: id})
	m.multicast(wire.Message{Type: wire.TypeRepair, From: m.self(), ID: id, Payload: payload})
}

// addWaiter records a remote requester to relay to on receipt, without
// duplicates.
func (m *Member) addWaiter(id wire.MessageID, who topology.NodeID) {
	ms := m.msg(id)
	if slices.Contains(ms.waiters, who) {
		return
	}
	ms.waiters = append(ms.waiters, who)
}

// Leave removes the member from the group voluntarily: each long-term
// buffered message is transferred to a randomly selected region peer so no
// loss becomes unrecoverable (§3.2). The member then stops processing.
// A crashed member cannot leave gracefully; Leave is then a no-op.
func (m *Member) Leave() {
	if m.left || m.crashed {
		return
	}
	// Hand off to peers the failure detector believes are alive —
	// transferring the long-term buffer to a corpse would defeat §3.2.
	for _, e := range m.buf.TakeForHandoff() {
		to, ok := m.randomPeer()
		if !ok {
			break // sole region member: nothing to transfer to
		}
		m.coldState().faults.HandoffsSent.Inc()
		m.trace(trace.Event{Kind: trace.HandoffSend, ID: e.ID, Peer: to})
		m.send(to, wire.Message{
			Type:     wire.TypeHandoff,
			From:     m.self(),
			ID:       e.ID,
			Payload:  e.Payload,
			LongTerm: true,
		})
	}
	m.stopEpisodes()
	if fd := m.detector(); fd != nil {
		fd.Stop()
	}
	m.buf.Close()
	m.left = true
}

// stopEpisodes ends every recovery and search episode and stops every
// pending back-off timer, leaving the member with no protocol timer but
// its detector's. Waiters, known bufferers and unrecovered marks stay.
func (m *Member) stopEpisodes() {
	for ms := range m.records {
		if ms.recovery != nil {
			m.endRecovery(ms.recovery)
		}
		if ms.search != nil {
			m.endSearch(ms.search)
		}
		if ms.mc != nil {
			m.endBackoff(ms.mc)
		}
		if ms.reply != nil {
			m.endBackoff(ms.reply)
		}
		m.release(ms)
	}
}

// Crash halts the member ungracefully: no handoff, every pending protocol
// timer stops, and incoming PDUs are ignored until Recover. Protocol state
// (reception sets, buffer contents) survives the outage, modeling a
// process that restarts from a warm image. The caller is responsible for
// also cutting the member's network (netsim.SetDown) so in-flight traffic
// behaves like a real crash.
func (m *Member) Crash() {
	if m.left || m.crashed {
		return
	}
	m.stopEpisodes()
	if fd := m.detector(); fd != nil {
		fd.Stop()
	}
	m.crashed = true
	m.trace(trace.Event{Kind: trace.Crash})
}

// Recover resumes a crashed member. Gossip restarts, and every gap the
// member had already observed (detected losses whose recovery died with
// the crash) is re-detected and recovered again — the re-recovery path
// whose latency FaultMetrics.ReRecoveryLatency records. Losses of messages
// published during the outage surface through the next session message as
// usual. No-op unless the member is crashed.
func (m *Member) Recover() {
	if m.left || !m.crashed {
		return
	}
	m.crashed = false
	if fd := m.detector(); fd != nil {
		fd.Start()
	}
	m.trace(trace.Event{Kind: trace.Recover})
	// Walk sources in ascending order: recovery start order pairs rng
	// draws with messages, so it must be a function of the state alone.
	srcs := m.sources.Slots()
	for i := range srcs {
		st := &srcs[i].State
		for seq := uint64(1); seq <= st.maxSeen; seq++ {
			if !st.Has(seq) {
				id := wire.MessageID{Source: srcs[i].Source, Seq: seq}
				if ms := st.recs.Get(seq); ms != nil {
					// A fresh retry budget: the message is back in
					// flight, not lost.
					ms.unrecovered = false
				}
				m.startRecovery(id, true)
			}
		}
	}
}

// Crashed reports whether the member is currently crashed.
func (m *Member) Crashed() bool { return m.crashed }

// Unrecovered yields the messages this member has given up recovering, in
// (source, sequence) order: the explicit count of loss (§3.2) that
// runner.Totals sums. A message leaves it when it arrives late or Recover
// retries it. Yields nothing for a healthy quiesced run.
func (m *Member) Unrecovered(yield func(wire.MessageID) bool) {
	for ms := range m.records {
		if ms.unrecovered && !yield(ms.id) {
			return
		}
	}
}

// trace stamps e with the time and this member and hands it to the tracer.
// Call sites fill in typed fields only, so an untraced run formats nothing.
func (m *Member) trace(e trace.Event) {
	if m.region.tracer == nil {
		return
	}
	e.At, e.Node = m.region.sched().Now(), m.self()
	m.region.tracer.Emit(e)
}
