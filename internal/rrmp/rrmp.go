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
	"cmp"
	"maps"
	"slices"
	"time"

	"repro/internal/clock"
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

// Transport lets a member send PDUs. Implementations must deliver
// asynchronously (never call back into the member synchronously from Send),
// which the simulator's network guarantees.
type Transport interface {
	// Send transmits msg to one peer.
	Send(to topology.NodeID, msg wire.Message)
	// Broadcast transmits msg to the entire multicast group (the initial
	// IP multicast). Only the sender uses this.
	Broadcast(msg wire.Message)
}

// Hooks are optional experiment/instrumentation callbacks. All hooks run
// synchronously on the member's executor.
type Hooks struct {
	// OnDeliver fires once per distinct data message delivered.
	OnDeliver func(id wire.MessageID, at time.Duration)
	// OnEvict mirrors the buffer's eviction callback.
	OnEvict func(e *core.Entry, reason core.EvictReason)
	// OnPromote mirrors the buffer's long-term promotion callback.
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

// Config assembles a member.
type Config struct {
	// View is this member's partial group knowledge (own region + parent
	// region, §2.1).
	View topology.View
	// Transport sends PDUs; required.
	Transport Transport
	// Sched supplies time and timers; required.
	Sched clock.Scheduler
	// Rng is this member's private randomness stream; required.
	Rng *rng.Source
	// Params tunes the protocol; zero fields take defaults.
	Params Params
	// Policy overrides the buffering policy. Nil selects the paper's
	// two-phase policy built from Params.
	Policy core.Policy
	// Tracer observes protocol events; nil means no tracing.
	Tracer trace.Tracer
	// Hooks are optional instrumentation callbacks.
	Hooks Hooks
}

// sourceState tracks per-sender reception: the highest sequence observed
// and the set of sequences ever received (which outlives buffer eviction —
// "received but discarded" is a distinct protocol state, §3.3).
//
// The received set is a bitset over sequence numbers rather than a map:
// sequences are dense (senders count 1, 2, 3, ...), so membership is one
// shift-and-mask, marking never hashes, and a member's whole reception
// state for a 10k-message run is ~1.25 KB. The contiguous-prefix cursor is
// cached and advanced incrementally — bits are never cleared, so the prefix
// is monotone and each sequence is inspected at most once across all
// Prefix calls instead of rescanning from the start-sequence every time.
type sourceState struct {
	maxSeen uint64
	// base is the first sequence the bitset covers (64-aligned, fixed at
	// the first mark); bit (seq-base) of bits[(seq-base)/64] is set iff
	// seq was received.
	base   uint64
	bits   []uint64
	marked bool
	// prefix is the cached largest k with every sequence in (prefixStart,
	// k] received; it only ever advances.
	prefix uint64
}

// has reports whether seq was ever received.
func (st *sourceState) has(seq uint64) bool {
	if !st.marked || seq < st.base {
		return false
	}
	i := seq - st.base
	w := i >> 6
	return w < uint64(len(st.bits)) && st.bits[w]&(1<<(i&63)) != 0
}

// mark records seq as received.
func (st *sourceState) mark(seq uint64) {
	if !st.marked {
		st.base = seq &^ 63
		st.marked = true
	}
	if seq < st.base {
		// A sequence below the first-ever mark (late joiner probing old
		// history): prepend words so the bitset still covers it.
		shift := (st.base - seq + 63) >> 6
		grown := make([]uint64, uint64(len(st.bits))+shift)
		copy(grown[shift:], st.bits)
		st.bits = grown
		st.base -= shift << 6
	}
	i := seq - st.base
	for uint64(len(st.bits)) <= i>>6 {
		st.bits = append(st.bits, 0)
	}
	st.bits[i>>6] |= 1 << (i & 63)
}

// msgState is all a member keeps about one message while any of it is in
// flight. A record exists only while one of its fields is set: every path
// that clears one and may leave the record idle passes it to release.
type msgState struct {
	// The live §2.2 recovery and §3.3 search episodes; an episode is here
	// exactly while it is not done.
	recovery *recovery
	search   *searchState
	// waiters are the remote requesters to relay the message to (§2.2).
	waiters []topology.NodeID
	// The back-offs of the regional repair multicast and of a
	// multicast-query reply. Each callback clears its own handle, since a
	// fired Handle stays Armed.
	mc, reply clock.Handle
	// bufferer is the sender of the last HAVE, or topology.NoNode: a
	// search starting after the terminating HAVE routes straight to it
	// instead of re-igniting the random walk.
	bufferer topology.NodeID
	// unrecovered marks a message whose recovery was abandoned after every
	// retry budget ran out, until it arrives late. See
	// Metrics.Unrecoverable.
	unrecovered bool
}

// msg returns id's record, making it if there is none.
func (m *Member) msg(id wire.MessageID) *msgState {
	ms := m.msgs[id]
	if ms == nil {
		if m.msgs == nil {
			m.msgs = make(map[wire.MessageID]*msgState)
		}
		ms = &msgState{bufferer: topology.NoNode}
		m.msgs[id] = ms
	}
	return ms
}

// release drops id's record ms once nothing about the message is in flight.
func (m *Member) release(id wire.MessageID, ms *msgState) {
	if ms.recovery == nil && ms.search == nil && len(ms.waiters) == 0 && !ms.mc.Armed() &&
		!ms.reply.Armed() && ms.bufferer == topology.NoNode && !ms.unrecovered {
		delete(m.msgs, id)
	}
}

// Member is one RRMP group member. Not safe for concurrent use; drive it
// from a single goroutine.
type Member struct {
	cfg    Config
	params Params
	self   topology.NodeID

	buf     *core.Buffer
	locator interface {
		Bufferers(id wire.MessageID) []topology.NodeID
	} // non-nil only under the deterministic hash policy (§3.4)

	// Own-region membership (incl. self). The topology assigns region
	// members contiguous ascending IDs (topology.View.RegionMembers), so
	// membership is the range check [inRegionLo, inRegionHi] — a
	// region-sized map per member would be exactly the O(members × region
	// size) setup cost the 1M-member path cannot afford.
	inRegionLo topology.NodeID
	inRegionHi topology.NodeID
	sources    map[topology.NodeID]*sourceState
	// msgs holds the record of every message with protocol state in
	// flight at this member (see msgState); made on first use.
	msgs map[wire.MessageID]*msgState
	// served records when this member last repaired a given (message,
	// origin) pair from a search, so the burst of in-flight SEARCH PDUs
	// that race the terminating HAVE does not each trigger another repair.
	served map[servedKey]time.Duration
	// fd is the optional gossip failure detector (Params.FDEnabled);
	// nil when disabled, in which case every peer counts as live.
	fd *gossipfd.Detector

	metrics Metrics
	left    bool
	crashed bool
}

// NewMember constructs a member. It panics on missing required
// dependencies (programming errors).
func NewMember(cfg Config) *Member {
	if cfg.Transport == nil {
		panic("rrmp: Config.Transport is required")
	}
	if cfg.Sched == nil {
		panic("rrmp: Config.Sched is required")
	}
	if cfg.Rng == nil {
		panic("rrmp: Config.Rng is required")
	}
	m := &Member{
		cfg:     cfg,
		params:  cfg.Params.withDefaults(),
		self:    cfg.View.Self,
		sources: make(map[topology.NodeID]*sourceState),
		served:  make(map[servedKey]time.Duration),
	}
	m.initRegionMembership(cfg.View)

	policy := cfg.Policy
	if policy == nil {
		regionSize := cfg.View.NumPeers() + 1
		policy = core.NewTwoPhase(m.params.IdleThreshold, m.params.C, regionSize, m.params.LongTermTTL)
	}
	if loc, ok := policy.(interface {
		Bufferers(id wire.MessageID) []topology.NodeID
	}); ok {
		m.locator = loc
	}
	if binder, ok := policy.(core.RngBinder); ok {
		binder.BindRng(cfg.Rng.Split(policyStreamLabel))
	}
	m.buf = core.NewBuffer(core.Config{
		Policy:      policy,
		Sched:       cfg.Sched,
		ByteBudget:  m.params.ByteBudget,
		CopyPayload: m.params.CopyOnStore,
		Rng:         cfg.Rng.Split(bufferStreamLabel),
		OnEvict: func(e *core.Entry, r core.EvictReason) {
			if r != core.EvictHandoff {
				m.metrics.BufferingTime.AddDuration(cfg.Sched.Now() - e.StoredAt)
			}
			if cfg.Hooks.OnEvict != nil {
				cfg.Hooks.OnEvict(e, r)
			}
		},
		OnPromote: cfg.Hooks.OnPromote,
	})
	if m.params.FDEnabled && cfg.View.NumPeers() > 0 {
		m.fd = gossipfd.New(gossipfd.Config{
			View:           cfg.View,
			Sched:          cfg.Sched,
			Rng:            cfg.Rng.Split(gossipFDStreamLabel),
			Send:           func(to topology.NodeID, msg wire.Message) { m.cfg.Transport.Send(to, msg) },
			GossipInterval: m.params.FDGossipInterval,
			FailTimeout:    m.params.FDFailTimeout,
			CleanupTimeout: m.params.FDCleanupTimeout,
			OnSuspect:      m.onSuspect,
			OnRestore:      m.onRestore,
		})
		m.fd.Start()
	}
	return m
}

// onSuspect reacts to the failure detector marking a peer dead: cached
// bufferer pointers at the suspect are dropped so in-flight searches fall
// back to the random walk instead of probing a corpse.
func (m *Member) onSuspect(n topology.NodeID) {
	m.metrics.Suspects.Inc()
	for id, ms := range m.msgs {
		if ms.bufferer == n {
			ms.bufferer = topology.NoNode
			m.release(id, ms)
		}
	}
	m.trace(trace.Event{Kind: trace.Suspect, Peer: n})
}

func (m *Member) onRestore(n topology.NodeID) {
	m.metrics.Restores.Inc()
	m.trace(trace.Event{Kind: trace.Restore, Peer: n})
}

// peerLive reports whether the failure detector considers n alive. With
// no detector every peer is live, preserving the pre-FD protocol exactly.
func (m *Member) peerLive(n topology.NodeID) bool {
	return m.fd == nil || !m.fd.Suspected(n)
}

// initRegionMembership derives the own-region membership range from the
// view's region slice, which the topology builds as one dense ascending ID
// range covering Self.
func (m *Member) initRegionMembership(v topology.View) {
	rm := v.RegionMembers
	if len(rm) == 0 {
		m.inRegionLo, m.inRegionHi = m.self, m.self
		return
	}
	m.inRegionLo, m.inRegionHi = rm[0], rm[len(rm)-1]
}

// inOwnRegion reports whether n is a member of this member's own region
// (Self included).
func (m *Member) inOwnRegion(n topology.NodeID) bool {
	return n >= m.inRegionLo && n <= m.inRegionHi
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
	if m.fd != nil {
		return m.fd.PickPeer(m.cfg.Rng)
	}
	rm := m.cfg.View.RegionMembers
	if len(rm) < 2 {
		return topology.NoNode, false
	}
	return rm[m.cfg.Rng.Pick(len(rm), m.cfg.View.SelfIdx)], true
}

// ID returns the member's node id.
func (m *Member) ID() topology.NodeID { return m.self }

// Buffer exposes the member's message buffer (read-mostly; experiments
// sample occupancy and long-term counts).
func (m *Member) Buffer() *core.Buffer { return m.buf }

// Metrics returns the member's live metrics.
func (m *Member) Metrics() *Metrics { return &m.metrics }

// Left reports whether the member has left the group.
func (m *Member) Left() bool { return m.left }

// HasReceived reports whether id was ever delivered to this member
// (it may since have been discarded from the buffer).
func (m *Member) HasReceived(id wire.MessageID) bool {
	st, ok := m.sources[id.Source]
	return ok && st.has(id.Seq)
}

// Prefix returns the contiguous received prefix for src: the largest k such
// that every sequence in (StartSeq, k] has been received. Stability
// detection baselines gossip this value as their message-history digest.
func (m *Member) Prefix(src topology.NodeID) uint64 {
	st, ok := m.sources[src]
	if !ok {
		return m.params.StartSeq
	}
	k := st.prefix
	if k < m.params.StartSeq {
		k = m.params.StartSeq
	}
	for st.has(k + 1) {
		k++
	}
	st.prefix = k
	return k
}

// MaxSeen returns the highest sequence number observed from src.
func (m *Member) MaxSeen(src topology.NodeID) uint64 {
	st, ok := m.sources[src]
	if !ok {
		return m.params.StartSeq
	}
	return st.maxSeen
}

// SetDeliverHook (re)binds the delivery callback after construction.
// Experiment harnesses use this when the hook must close over state that
// exists only once the full cluster is wired.
func (m *Member) SetDeliverHook(fn func(id wire.MessageID, at time.Duration)) {
	m.cfg.Hooks.OnDeliver = fn
}

// source returns (creating if needed) the reception state for src, with the
// loss-detection baseline at Params.StartSeq.
func (m *Member) source(src topology.NodeID) *sourceState {
	st, ok := m.sources[src]
	if !ok {
		st = &sourceState{maxSeen: m.params.StartSeq, prefix: m.params.StartSeq}
		m.sources[src] = st
	}
	return st
}

// Receive dispatches one incoming PDU. It is the single entry point for
// network input. The PDU must be this member's alone (netsim delivers each
// one once and keeps no reference): a heartbeat's Counters are handed to
// the failure detector for reuse.
func (m *Member) Receive(from topology.NodeID, msg wire.Message) {
	if m.left || m.crashed {
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
		if m.fd != nil {
			m.fd.Receive(msg)
			m.fd.Recycle(msg.Counters)
		}
	default:
		// Unknown/baseline-only PDUs are ignored by the RRMP engine.
		m.trace(trace.Event{Kind: trace.Ignore, Peer: from, N: int32(msg.Type)})
	}
}

// onData handles the sender's initial multicast.
func (m *Member) onData(msg wire.Message) {
	m.deliver(msg.ID, msg.Payload, msg.From)
}

// onSession advances loss detection to the sender's announced top sequence
// (§2.1: session messages catch the loss of the last message in a burst).
func (m *Member) onSession(msg wire.Message) {
	m.noteTop(msg.From, msg.TopSeq)
}

// onLocalRequest answers a local-recovery NAK if the message is buffered;
// otherwise the request is ignored (§2.2). Either way the request is
// feedback for the buffering algorithm when the entry exists (§3.1).
func (m *Member) onLocalRequest(from topology.NodeID, msg wire.Message) {
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
func (m *Member) onRemoteRequest(from topology.NodeID, msg wire.Message) {
	m.metrics.RemoteReqRecv.Inc()
	id := msg.ID
	if e, ok := m.buf.Get(id); ok {
		m.buf.OnRequest(id)
		m.sendRepair(from, e)
		m.resolveSearch(id, from) // request landed on a holder: search time 0
		return
	}
	st := m.source(id.Source)
	if !st.has(id.Seq) {
		// Never received: remember the requester and relay on receipt.
		m.addWaiter(id, from)
		if m.params.RecoverOnRemoteEvidence {
			m.noteTop(id.Source, id.Seq)
		}
		return
	}
	// Received but discarded: search the region for a bufferer.
	m.startSearch(id, from)
}

// onRepair handles a retransmission: deliver it, and if it arrived from a
// remote region, multicast it into the local region so members sharing the
// loss receive it (§2.2).
func (m *Member) onRepair(from topology.NodeID, msg wire.Message) {
	m.metrics.RepairsRecv.Inc()
	fromLocal := m.inOwnRegion(from)
	isNew := m.deliver(msg.ID, msg.Payload, from)
	switch {
	case isNew && !fromLocal:
		m.scheduleRegionalMulticast(msg.ID, msg.Payload)
	case fromLocal:
		// Seeing the repair multicast by a local peer suppresses our own
		// pending regional multicast of the same message.
		if ms := m.msgs[msg.ID]; ms != nil && ms.mc.Armed() {
			ms.mc.Stop()
			m.metrics.SuppressedMulticasts.Inc()
			m.release(msg.ID, ms)
		}
	}
}

// onHandoff accepts a long-term buffer transfer from a leaving peer (§3.2).
func (m *Member) onHandoff(_ topology.NodeID, msg wire.Message) {
	m.metrics.HandoffsRecv.Inc()
	id := msg.ID
	st := m.source(id.Source)
	if !st.has(id.Seq) {
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
	st := m.source(id.Source)
	if st.has(id.Seq) {
		m.metrics.Duplicates.Inc()
		return false
	}
	st.mark(id.Seq)
	now := m.cfg.Sched.Now()

	m.buf.Store(id, payload)
	m.metrics.Delivered.Inc()
	m.trace(trace.Event{Kind: trace.Deliver, ID: id, Peer: from})

	if ms := m.msgs[id]; ms != nil {
		// Complete an in-flight recovery.
		if rec := ms.recovery; rec != nil {
			rec.end()
			ms.recovery = nil
			latency := now - rec.detectedAt
			m.metrics.RecoveryLatency.AddDuration(latency)
			if rec.rerecovery {
				m.metrics.ReRecoveryLatency.AddDuration(latency)
			}
			if m.cfg.Hooks.OnRecovered != nil {
				m.cfg.Hooks.OnRecovered(id, latency)
			}
		}

		// A message given up on can still arrive — a peer's regional repair
		// multicast, a handoff, a very late retransmission. It is then no
		// longer lost.
		if ms.unrecovered {
			ms.unrecovered = false
			m.metrics.Unrecoverable.Add(-1)
		}

		// Relay to downstream members recorded as waiting (§2.2). The repair
		// is built from the in-hand payload, not the buffer: under a byte
		// budget the store above may have been denied (or instantly
		// displaced), and the waiters deserve the message either way.
		ws := ms.waiters
		ms.waiters = nil
		m.release(id, ms)
		for _, w := range ws {
			m.metrics.WaiterRelays.Inc()
			m.sendRepairPayload(w, id, payload, false)
		}
	}

	// Detect gaps below this sequence number.
	m.noteTop(id.Source, id.Seq)

	if m.cfg.Hooks.OnDeliver != nil {
		m.cfg.Hooks.OnDeliver(id, now)
	}
	return true
}

// sendRepair transmits a buffered entry to one peer.
func (m *Member) sendRepair(to topology.NodeID, e *core.Entry) {
	m.sendRepairPayload(to, e.ID, e.Payload, e.State == core.StateLongTerm)
}

// sendRepairPayload transmits a repair from an in-hand payload, for paths
// where the message need not (or no longer) be buffered locally.
func (m *Member) sendRepairPayload(to topology.NodeID, id wire.MessageID, payload []byte, longTerm bool) {
	m.metrics.RepairsSent.Inc()
	m.cfg.Transport.Send(to, wire.Message{
		Type:     wire.TypeRepair,
		From:     m.self,
		ID:       id,
		Payload:  payload,
		LongTerm: longTerm,
	})
}

// scheduleRegionalMulticast multicasts a remotely repaired message into the
// local region, optionally after a randomized back-off that lets concurrent
// receivers suppress duplicates (§2.2, [14]).
func (m *Member) scheduleRegionalMulticast(id wire.MessageID, payload []byte) {
	if m.cfg.View.NumPeers() == 0 {
		return
	}
	if m.params.RepairBackoffMax <= 0 {
		m.regionalMulticast(id, payload)
		return
	}
	// A message is new to a member once, so no back-off is pending yet.
	ms := m.msg(id)
	delay := time.Duration(m.cfg.Rng.Uint64n(uint64(m.params.RepairBackoffMax))) + 1
	ms.mc.Arm(m.cfg.Sched, delay, func() {
		ms.mc = clock.Handle{}
		m.release(id, ms)
		m.regionalMulticast(id, payload)
	})
}

func (m *Member) regionalMulticast(id wire.MessageID, payload []byte) {
	m.metrics.RegionalMulticasts.Inc()
	m.trace(trace.Event{Kind: trace.RegionMC, ID: id})
	msg := wire.Message{Type: wire.TypeRepair, From: m.self, ID: id, Payload: payload}
	for i, p := range m.cfg.View.RegionMembers {
		if i == m.cfg.View.SelfIdx {
			continue
		}
		m.cfg.Transport.Send(p, msg)
	}
}

// addWaiter records a remote requester to relay to on receipt, without
// duplicates.
func (m *Member) addWaiter(id wire.MessageID, who topology.NodeID) {
	ms := m.msg(id)
	if slices.Contains(ms.waiters, who) {
		return
	}
	m.metrics.WaitersRecorded.Inc()
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
		m.metrics.HandoffsSent.Inc()
		m.trace(trace.Event{Kind: trace.HandoffSend, ID: e.ID, Peer: to})
		m.cfg.Transport.Send(to, wire.Message{
			Type:     wire.TypeHandoff,
			From:     m.self,
			ID:       e.ID,
			Payload:  e.Payload,
			LongTerm: true,
		})
	}
	m.stopEpisodes()
	if m.fd != nil {
		m.fd.Stop()
	}
	m.buf.Close()
	m.left = true
}

// stopEpisodes ends every recovery and search episode and stops every
// pending back-off timer, leaving the member with no protocol timer but
// its detector's. Waiters, known bufferers and unrecovered marks stay.
func (m *Member) stopEpisodes() {
	for id, ms := range m.msgs {
		if ms.recovery != nil {
			ms.recovery.end()
			ms.recovery = nil
		}
		if ms.search != nil {
			ms.search.end()
			ms.search = nil
		}
		ms.mc.Stop()
		ms.reply.Stop()
		m.release(id, ms)
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
	if m.fd != nil {
		m.fd.Stop()
	}
	m.crashed = true
	m.trace(trace.Event{Kind: trace.Crash})
}

// Recover resumes a crashed member. Gossip restarts, and every gap the
// member had already observed (detected losses whose recovery died with
// the crash) is re-detected and recovered again — the re-recovery path
// whose latency Metrics.ReRecoveryLatency records. Losses of messages
// published during the outage surface through the next session message as
// usual. No-op unless the member is crashed.
func (m *Member) Recover() {
	if m.left || !m.crashed {
		return
	}
	m.crashed = false
	if m.fd != nil {
		m.fd.Start()
	}
	m.trace(trace.Event{Kind: trace.Recover})
	// Walk sources in a fixed order: recovery start order pairs rng draws
	// with messages, so map iteration order must not leak into runs.
	for _, src := range slices.Sorted(maps.Keys(m.sources)) {
		st := m.sources[src]
		for seq := m.params.StartSeq + 1; seq <= st.maxSeen; seq++ {
			if !st.has(seq) {
				id := wire.MessageID{Source: src, Seq: seq}
				if ms := m.msgs[id]; ms != nil && ms.unrecovered {
					// A fresh retry budget: the message is back in
					// flight, not lost.
					ms.unrecovered = false
					m.metrics.Unrecoverable.Add(-1)
				}
				m.startRecovery(id, true)
			}
		}
	}
}

// Crashed reports whether the member is currently crashed.
func (m *Member) Crashed() bool { return m.crashed }

// Unrecovered returns the messages this member has given up recovering,
// sorted by (source, sequence). Empty for a healthy quiesced run.
func (m *Member) Unrecovered() []wire.MessageID {
	out := []wire.MessageID{}
	for id, ms := range m.msgs {
		if ms.unrecovered {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, func(a, b wire.MessageID) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// trace stamps e with the time and this member and hands it to the tracer.
// Call sites fill in typed fields only, so an untraced run formats nothing.
func (m *Member) trace(e trace.Event) {
	if m.cfg.Tracer == nil {
		return
	}
	e.At, e.Node = m.cfg.Sched.Now(), m.self
	m.cfg.Tracer.Emit(e)
}
