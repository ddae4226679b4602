package rrmp

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// servedKey identifies one (message, remote requester) search service.
type servedKey struct {
	id     wire.MessageID
	origin topology.NodeID
}

// searchState is one search-for-bufferer episode (§3.3): this member was
// asked for a message it received but has since discarded, and is probing
// random region members for a surviving copy.
type searchState struct {
	id wire.MessageID
	// msg is the record of id that holds the episode while it is live.
	msg *msgState
	// origins are the remote requesters awaiting the repair. Usually one;
	// multiple remote requests for the same discarded message merge.
	origins   []topology.NodeID
	startedAt time.Duration
	tries     int
	timer     clock.Handle
	// retry is the timer's callback, bound once by newSearch.
	retry func()
	// done is set when the episode leaves its message's record; a retry
	// that fires after that is stale and does nothing.
	done bool
}

// end stops the episode's timer and marks it done; the caller removes it
// from its message's record.
func (s *searchState) end() {
	s.timer.Stop()
	s.done = true
}

func (s *searchState) addOrigin(o topology.NodeID) {
	if !slices.Contains(s.origins, o) {
		s.origins = append(s.origins, o)
	}
}

func (s *searchState) dropOrigin(o topology.NodeID) {
	if i := slices.Index(s.origins, o); i >= 0 {
		s.origins = slices.Delete(s.origins, i, i+1)
	}
}

// startSearch begins (or joins) a search episode on behalf of origin.
func (m *Member) startSearch(id wire.MessageID, origin topology.NodeID) {
	ms := m.msg(id)
	if s := ms.search; s != nil {
		s.addOrigin(origin)
		return
	}
	s := m.newSearch(ms, id, origin)
	m.metrics.SearchesStarted.Inc()
	m.trace(trace.Event{Kind: trace.SearchStart, ID: id, Origin: origin})
	if m.params.SearchMode == SearchMulticastQuery {
		m.queryAttempt(s)
		return
	}
	m.searchAttempt(s)
}

// newSearch builds a search episode for id on behalf of origin and puts it
// in id's record ms, its retry bound to the search mode's attempt once for
// the episode's lifetime.
func (m *Member) newSearch(ms *msgState, id wire.MessageID, origin topology.NodeID) *searchState {
	s := &searchState{id: id, msg: ms, origins: []topology.NodeID{origin}, startedAt: m.cfg.Sched.Now()}
	ms.search = s
	if m.params.SearchMode == SearchMulticastQuery {
		s.retry = func() { m.queryAttempt(s) }
	} else {
		s.retry = func() { m.searchAttempt(s) }
	}
	return s
}

// endSearch finishes an episode: its timer stops, it is marked done and it
// leaves its message's record, which is released.
func (m *Member) endSearch(s *searchState) {
	s.end()
	s.msg.search = nil
	m.release(s.id, s.msg)
}

// queryAttempt multicasts the bufferer query in the region (§3.3's rejected
// design). Retries re-multicast until a HAVE arrives or tries exhaust.
func (m *Member) queryAttempt(s *searchState) {
	if s.done {
		return
	}
	if len(s.origins) == 0 || s.tries >= m.params.MaxSearchTries {
		if len(s.origins) > 0 {
			m.metrics.SearchFailures.Inc()
		}
		m.endSearch(s)
		return
	}
	s.tries++
	for _, o := range s.origins {
		m.metrics.QueriesSent.Inc()
		msg := wire.Message{Type: wire.TypeQuery, From: m.self, ID: s.id, Origin: o}
		for i, p := range m.cfg.View.RegionMembers {
			if i == m.cfg.View.SelfIdx {
				continue
			}
			m.cfg.Transport.Send(p, msg)
		}
	}
	// Wait out the worst-case reply back-off plus a round trip before
	// re-multicasting.
	s.timer.Arm(m.cfg.Sched, m.params.QueryBackoffMax+m.params.IntraRTT+m.params.RetryGrace, s.retry)
}

// onQuery handles a multicast bufferer query: holders schedule a reply
// after a uniform back-off in (0, QueryBackoffMax], suppressed if another
// member's HAVE for the same message arrives first.
func (m *Member) onQuery(from topology.NodeID, msg wire.Message) {
	id, origin := msg.ID, msg.Origin
	if _, ok := m.buf.Get(id); !ok {
		// Non-holders stay silent under the multicast-query design; the
		// querier re-multicasts if nobody answers.
		return
	}
	m.buf.OnRequest(id)
	ms := m.msg(id)
	if ms.reply.Armed() {
		return
	}
	delay := time.Duration(m.cfg.Rng.Uint64n(uint64(m.params.QueryBackoffMax))) + 1
	ms.reply.Arm(m.cfg.Sched, delay, func() {
		ms.reply = clock.Handle{}
		m.release(id, ms)
		cur, still := m.buf.Get(id)
		if !still {
			return
		}
		m.metrics.QueryReplies.Inc()
		m.sendRepair(origin, cur)
		m.announceHave(id, origin)
		m.resolveSearch(id, origin)
		m.trace(trace.Event{Kind: trace.QueryReply, ID: id, Origin: origin, Peer: from})
	})
}

// searchAttempt forwards the search to the next candidate and arms the
// retry timer. Under the paper's randomized scheme the candidate is a
// uniformly random region peer; under the deterministic hash baseline
// (§3.4) the candidates are the computable bufferer set, probed in rank
// order, skipping the random walk entirely.
//
// Only the first attempt consults the record's bufferer: it is set by
// onHave alone, which ends every live episode for its id, so none can
// appear while an episode runs.
func (m *Member) searchAttempt(s *searchState) {
	if s.done {
		return
	}
	if len(s.origins) == 0 {
		m.endSearch(s)
		return
	}
	if s.tries >= m.params.MaxSearchTries {
		m.metrics.SearchFailures.Inc()
		m.trace(trace.Event{Kind: trace.SearchFail, ID: s.id})
		m.endSearch(s)
		return
	}
	var q topology.NodeID
	var ok bool
	if known := s.msg.bufferer; s.tries == 0 && known != topology.NoNode && known != m.self {
		// A HAVE identified a bufferer: route directly. It is consumed so
		// a stale pointer (bufferer discarded since) degrades back to the
		// random walk on the next attempt.
		s.msg.bufferer = topology.NoNode
		q, ok = known, true
	} else if m.locator != nil {
		q, ok = m.nextDeterministicTarget(s)
	} else {
		q, ok = m.randomPeer()
	}
	if !ok {
		m.endSearch(s)
		return
	}
	s.tries++
	m.metrics.SearchForwards.Inc()
	m.trace(trace.Event{Kind: trace.SearchFwd, ID: s.id, Peer: q, N: int32(s.tries)})
	// One SEARCH per origin so each awaiting requester is carried forward.
	for _, o := range s.origins {
		m.cfg.Transport.Send(q, wire.Message{Type: wire.TypeSearch, From: m.self, ID: s.id, Origin: o})
	}
	s.timer.Arm(m.cfg.Sched, m.params.IntraRTT+m.params.RetryGrace, s.retry)
}

// nextDeterministicTarget walks the hash-elected bufferer set in rank
// order (§3.4: any member can compute the set locally), preferring
// candidates the failure detector considers alive. If every candidate is
// suspected it falls back to rank order — a stale suspicion must not make
// the set unreachable forever.
func (m *Member) nextDeterministicTarget(s *searchState) (topology.NodeID, bool) {
	set := m.locator.Bufferers(s.id)
	var fallback topology.NodeID = topology.NoNode
	for i := s.tries; i < len(set)+s.tries; i++ {
		cand := set[i%len(set)]
		if cand == m.self {
			continue
		}
		if m.peerLive(cand) {
			return cand, true
		}
		if fallback == topology.NoNode {
			fallback = cand
		}
	}
	if fallback != topology.NoNode {
		return fallback, true
	}
	return 0, false
}

// onSearch handles a forwarded search request: serve it from the buffer,
// join the search, or (if never received) record the waiter and recover
// (§3.3 and its footnote 4).
func (m *Member) onSearch(from topology.NodeID, msg wire.Message) {
	id, origin := msg.ID, msg.Origin
	if e, ok := m.buf.Get(id); ok {
		m.buf.OnRequest(id) // a use: keeps the long-term copy warm
		// Search episodes spray redundant probes (retries, joiners whose
		// in-flight PDUs race the terminating HAVE). Serve each remote
		// requester at most once per round-trip window.
		key := servedKey{id: id, origin: origin}
		now := m.cfg.Sched.Now()
		if at, ok := m.served[key]; ok && now-at <= 2*m.params.IntraRTT {
			// Duplicate probe for an already-served requester: answer with
			// a unicast HAVE (no payload) so the prober stops, without
			// re-sending the repair or re-multicasting.
			m.metrics.HavesSent.Inc()
			m.cfg.Transport.Send(from, wire.Message{Type: wire.TypeHave, From: m.self, ID: id, Origin: origin})
			return
		}
		if len(m.served) > 1024 {
			// Lazy purge: entries matter only within the dedupe window.
			for k, at := range m.served {
				if now-at > 2*m.params.IntraRTT {
					delete(m.served, k)
				}
			}
		}
		m.served[key] = now
		m.metrics.SearchServed.Inc()
		m.sendRepair(origin, e)
		m.announceHave(id, origin)
		m.resolveSearch(id, origin)
		m.trace(trace.Event{Kind: trace.SearchServe, ID: id, Origin: origin, Peer: from})
		return
	}
	st := m.source(id.Source)
	if !st.has(id.Seq) {
		// Footnote 4: a member that never received the message recovers it
		// itself; the recorded waiter gets the relay on receipt.
		m.addWaiter(id, origin)
		if m.params.RecoverOnRemoteEvidence {
			m.noteTop(id.Source, id.Seq)
		}
		return
	}
	m.metrics.SearchJoins.Inc()
	m.startSearch(id, origin)
}

// announceHave multicasts "I have the message" in the region, terminating
// the search episode for origin (§3.3).
func (m *Member) announceHave(id wire.MessageID, origin topology.NodeID) {
	m.metrics.HavesSent.Inc()
	msg := wire.Message{Type: wire.TypeHave, From: m.self, ID: id, Origin: origin}
	for i, p := range m.cfg.View.RegionMembers {
		if i == m.cfg.View.SelfIdx {
			continue
		}
		m.cfg.Transport.Send(p, msg)
	}
}

// onHave ends the local search episode for the served origin. If this
// member's episode carries other origins, they are redirected straight to
// the announcing bufferer rather than continuing the random walk.
func (m *Member) onHave(from topology.NodeID, msg wire.Message) {
	m.metrics.HavesRecv.Inc()
	ms := m.msg(msg.ID)
	ms.bufferer = from
	// The requester named in the HAVE has been served: holders receiving
	// late probes for the same (message, origin) must not repair again.
	m.served[servedKey{id: msg.ID, origin: msg.Origin}] = m.cfg.Sched.Now()
	// Another member answered: suppress our own pending query reply.
	if ms.reply.Armed() {
		ms.reply.Stop()
		m.metrics.SuppressedReplies.Inc()
	}
	s := ms.search
	if s == nil {
		return
	}
	s.dropOrigin(msg.Origin)
	if len(s.origins) == 0 {
		m.endSearch(s)
		m.trace(trace.Event{Kind: trace.SearchEnd, ID: msg.ID, Peer: from})
		return
	}
	// Redirect remaining origins to the known bufferer.
	for _, o := range s.origins {
		m.metrics.SearchForwards.Inc()
		m.cfg.Transport.Send(from, wire.Message{Type: wire.TypeSearch, From: m.self, ID: msg.ID, Origin: o})
	}
	m.endSearch(s)
}

// resolveSearch reports a served remote requester to the hooks (the Fig. 8
// and Fig. 9 measurement point) and clears the origin from any local
// episode.
func (m *Member) resolveSearch(id wire.MessageID, origin topology.NodeID) {
	if ms := m.msgs[id]; ms != nil && ms.search != nil {
		s := ms.search
		s.dropOrigin(origin)
		if len(s.origins) == 0 {
			m.endSearch(s)
		}
	}
	if m.cfg.Hooks.OnSearchResolved != nil {
		m.cfg.Hooks.OnSearchResolved(id, origin)
	}
}
