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
	// ms is the record of the message searched for.
	ms *msgState
	// origins are the remote requesters awaiting the repair. Usually one;
	// multiple remote requests for the same discarded message merge.
	origins []topology.NodeID
	tries   int
	timer   clock.Handle
	// done is set when the episode leaves its message's record and goes
	// back on the free list.
	done bool
}

// Fire is a search's retry: the next attempt of its member's search
// mode.
func (s *searchState) Fire() {
	m := s.ms.m
	if m.region.params.SearchMode == SearchMulticastQuery {
		m.queryAttempt(s)
		return
	}
	m.searchAttempt(s)
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
	s := m.newSearch(ms, origin)
	m.metrics.SearchesStarted.Inc()
	m.trace(trace.Event{Kind: trace.SearchStart, ID: id, Origin: origin})
	s.Fire()
}

// newSearch puts a search episode on behalf of origin in ms, taking its
// record off the free list.
func (m *Member) newSearch(ms *msgState, origin topology.NodeID) *searchState {
	s := take(&m.region.searches)
	if s == nil {
		s = new(searchState)
	}
	s.ms, s.origins, s.done = ms, append(s.origins, origin), false
	ms.search = s
	return s
}

// endSearch stops s's timer, takes it out of its message's record and puts
// it back on the free list; the caller releases the record.
func (m *Member) endSearch(s *searchState) {
	s.timer.Stop()
	s.ms.search = nil
	*s = searchState{origins: s.origins[:0], done: true}
	m.region.searches = append(m.region.searches, s)
}

// finishSearch ends s and releases its message's record.
func (m *Member) finishSearch(s *searchState) {
	ms := s.ms
	m.endSearch(s)
	m.release(ms)
}

// queryAttempt multicasts the bufferer query in the region (§3.3's rejected
// design). Retries re-multicast until a HAVE arrives or tries exhaust.
func (m *Member) queryAttempt(s *searchState) {
	if s.done {
		return
	}
	if len(s.origins) == 0 || s.tries >= m.region.params.MaxSearchTries {
		if len(s.origins) > 0 {
			m.metrics.SearchFailures.Inc()
		}
		m.finishSearch(s)
		return
	}
	s.tries++
	for _, o := range s.origins {
		m.multicast(wire.Message{Type: wire.TypeQuery, From: m.self(), ID: s.ms.id, Origin: o})
	}
	// Wait out the worst-case reply back-off plus a round trip before
	// re-multicasting.
	s.timer.Arm(m.region.sched(), m.region.params.queryBackoffMax()+m.region.params.IntraRTT+m.region.params.retryGrace(), s)
}

// onQuery handles a multicast bufferer query: holders schedule a reply
// after a uniform back-off in (0, queryBackoffMax], suppressed if another
// member's HAVE for the same message arrives first.
func (m *Member) onQuery(from topology.NodeID, msg *wire.Message) {
	id, origin := msg.ID, msg.Origin
	if _, ok := m.buf.Get(id); !ok {
		// Non-holders stay silent under the multicast-query design; the
		// querier re-multicasts if nobody answers.
		return
	}
	m.buf.OnRequest(id)
	ms := m.msg(id)
	if ms.reply != nil {
		return
	}
	b := m.newBackoff(ms, &ms.reply)
	b.origin, b.querier = origin, from
	delay := time.Duration(m.rng.Uint64n(uint64(m.region.params.queryBackoffMax()))) + 1
	b.timer.Arm(m.region.sched(), delay, b)
}

// queryReply answers a multicast query for id on behalf of origin once
// the reply's back-off has run out unsuppressed, if the copy is still
// held.
func (m *Member) queryReply(id wire.MessageID, origin, querier topology.NodeID) {
	cur, still := m.buf.Get(id)
	if !still {
		return
	}
	m.sendRepair(origin, cur)
	m.announceHave(id, origin)
	m.resolveSearch(id, origin)
	m.trace(trace.Event{Kind: trace.QueryReply, ID: id, Origin: origin, Peer: querier})
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
	id := s.ms.id
	if len(s.origins) == 0 {
		m.finishSearch(s)
		return
	}
	if s.tries >= m.region.params.MaxSearchTries {
		m.metrics.SearchFailures.Inc()
		m.trace(trace.Event{Kind: trace.SearchFail, ID: id})
		m.finishSearch(s)
		return
	}
	var q topology.NodeID
	var ok bool
	if known := s.ms.bufferer; s.tries == 0 && known != topology.NoNode && known != m.self() {
		// A HAVE identified a bufferer: route directly. It is consumed so
		// a stale pointer (bufferer discarded since) degrades back to the
		// random walk on the next attempt.
		s.ms.bufferer = topology.NoNode
		q, ok = known, true
	} else if loc, hashed := m.buf.Policy().(locator); hashed {
		q, ok = m.nextDeterministicTarget(loc, s)
	} else {
		q, ok = m.randomPeer()
	}
	if !ok {
		m.finishSearch(s)
		return
	}
	s.tries++
	m.trace(trace.Event{Kind: trace.SearchFwd, ID: id, Peer: q, N: int32(s.tries)})
	// One SEARCH per origin so each awaiting requester is carried forward.
	for _, o := range s.origins {
		m.send(q, wire.Message{Type: wire.TypeSearch, From: m.self(), ID: id, Origin: o})
	}
	s.timer.Arm(m.region.sched(), m.region.params.IntraRTT+m.region.params.retryGrace(), s)
}

// locator is the side of the deterministic hash policy (§3.4) a search
// uses: the region's elected bufferers of a message, in rank order.
type locator interface {
	Bufferers(id wire.MessageID) []topology.NodeID
}

// nextDeterministicTarget walks the hash-elected bufferer set in rank
// order (§3.4: any member can compute the set locally), preferring
// candidates the failure detector considers alive. If every candidate is
// suspected it falls back to rank order — a stale suspicion must not make
// the set unreachable forever.
func (m *Member) nextDeterministicTarget(loc locator, s *searchState) (topology.NodeID, bool) {
	set := loc.Bufferers(s.ms.id)
	var fallback topology.NodeID = topology.NoNode
	for i := s.tries; i < len(set)+s.tries; i++ {
		cand := set[i%len(set)]
		if cand == m.self() {
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
func (m *Member) onSearch(from topology.NodeID, msg *wire.Message) {
	id, origin := msg.ID, msg.Origin
	if e, ok := m.buf.Get(id); ok {
		m.buf.OnRequest(id) // a use: keeps the long-term copy warm
		// Search episodes spray redundant probes (retries, joiners whose
		// in-flight PDUs race the terminating HAVE). Serve each remote
		// requester at most once per round-trip window.
		key := servedKey{id: id, origin: origin}
		now := m.region.sched().Now()
		if at, ok := m.served[key]; ok && now-at <= 2*m.region.params.IntraRTT {
			// Duplicate probe for an already-served requester: answer with
			// a unicast HAVE (no payload) so the prober stops, without
			// re-sending the repair or re-multicasting.
			m.send(from, wire.Message{Type: wire.TypeHave, From: m.self(), ID: id, Origin: origin})
			return
		}
		m.markServed(key, now)
		m.sendRepair(origin, e)
		m.announceHave(id, origin)
		m.resolveSearch(id, origin)
		m.trace(trace.Event{Kind: trace.SearchServe, ID: id, Origin: origin, Peer: from})
		return
	}
	st := m.sources.Add(id.Source)
	if !st.Has(id.Seq) {
		// Footnote 4: a member that never received the message recovers it
		// itself; the recorded waiter gets the relay on receipt.
		m.addWaiter(id, origin)
		m.noteTop(id.Source, id.Seq)
		return
	}
	m.startSearch(id, origin)
}

// markServed records key as served at now, making the table on first use.
// Past 1024 records it first purges those older than the dedupe window,
// which onSearch's lookup ignores anyway.
func (m *Member) markServed(key servedKey, now time.Duration) {
	if m.served == nil {
		m.served = make(map[servedKey]time.Duration)
	} else if len(m.served) > 1024 {
		for k, at := range m.served {
			if now-at > 2*m.region.params.IntraRTT {
				delete(m.served, k)
			}
		}
	}
	m.served[key] = now
}

// announceHave multicasts "I have the message" in the region, terminating
// the search episode for origin (§3.3).
func (m *Member) announceHave(id wire.MessageID, origin topology.NodeID) {
	m.multicast(wire.Message{Type: wire.TypeHave, From: m.self(), ID: id, Origin: origin})
}

// onHave ends the local search episode for the served origin. If this
// member's episode carries other origins, they are redirected straight to
// the announcing bufferer rather than continuing the random walk.
func (m *Member) onHave(from topology.NodeID, msg *wire.Message) {
	ms := m.msg(msg.ID)
	ms.bufferer = from
	// The requester named in the HAVE has been served: holders receiving
	// late probes for the same (message, origin) must not repair again.
	m.markServed(servedKey{id: msg.ID, origin: msg.Origin}, m.region.sched().Now())
	// Another member answered: suppress our own pending query reply.
	if ms.reply != nil {
		m.endBackoff(ms.reply)
	}
	s := ms.search
	if s == nil {
		return
	}
	s.dropOrigin(msg.Origin)
	if len(s.origins) == 0 {
		m.finishSearch(s)
		m.trace(trace.Event{Kind: trace.SearchEnd, ID: msg.ID, Peer: from})
		return
	}
	// Redirect remaining origins to the known bufferer.
	for _, o := range s.origins {
		m.send(from, wire.Message{Type: wire.TypeSearch, From: m.self(), ID: msg.ID, Origin: o})
	}
	m.finishSearch(s)
}

// resolveSearch reports a served remote requester to the hooks (the Fig. 8
// and Fig. 9 measurement point) and clears the origin from any local
// episode.
func (m *Member) resolveSearch(id wire.MessageID, origin topology.NodeID) {
	if ms := m.record(id); ms != nil && ms.search != nil {
		s := ms.search
		s.dropOrigin(origin)
		if len(s.origins) == 0 {
			m.finishSearch(s)
		}
	}
	if h := m.hooks(); h != nil && h.OnSearchResolved != nil {
		h.OnSearchResolved(id, origin)
	}
}
