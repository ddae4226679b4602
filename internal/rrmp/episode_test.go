package rrmp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// recovering reports whether a recovery for id is in flight at m.
func recovering(m *Member, id wire.MessageID) bool {
	ms := m.record(id)
	return ms != nil && ms.recovery != nil
}

// TestEpisodeLivenessInvariant pins the facts the member's per-message
// records rely on, after every event of a lossy, budget-starved run
// (three 10-member regions, each sharing one free list, 20 % loss on every
// PDU, a 2 KB budget, so members discard and searches run):
//
//   - an episode is reachable from its message's record exactly while it
//     is not done (checked both ways: no episode or back-off in a record
//     is done or belongs to another record, and one that has left its
//     record is done and on its region's free list unless it has been
//     taken again), so a retry's liveness check reads the episode's own
//     flag, and nothing on a free list holds a timer or a record;
//   - no live search that has made an attempt has a known bufferer, so
//     only an episode's first attempt reads it;
//   - the windows hold no idle record, and each record sits in its own
//     member's window at its own sequence.
//
// Midway one member crashes and later recovers: its waiters, known
// bufferers and unrecovered marks survive the crash, and its episodes and
// back-offs do not.
func TestEpisodeLivenessInvariant(t *testing.T) {
	params := DefaultParams()
	params.ByteBudget = 2048
	loss := &netsim.BernoulliLoss{P: 0.2, Rng: rng.New(17)}
	c := newCluster(t, chainRegions(t, 10, 10, 10), params, 5, loss)
	c.sender.StartSessions()
	for i := 0; i < 40; i++ {
		c.sim.At(time.Duration(i)*10*time.Millisecond, func() { c.sender.Publish(make([]byte, 512)) })
	}
	lists := map[*Region]bool{}
	for _, m := range c.members {
		lists[m.region] = true
	}
	if len(lists) != 3 {
		t.Fatalf("%d free lists for three regions", len(lists))
	}
	// Episodes seen in a record, with the member and message they were
	// seen for, until they are seen to have left that record.
	type seat struct {
		m  *Member
		id wire.MessageID
	}
	seenSearches := map[*searchState]seat{}
	seenRecoveries := map[*recovery]seat{}
	check := func() {
		live := map[any]bool{}
		for _, n := range c.all {
			m := c.members[n]
			for ms := range m.records {
				id := ms.id
				if ms.m != m || m.record(id) != ms {
					t.Fatalf("t=%v member %d: record %v is not in its own window", c.sim.Now(), n, id)
				}
				if ms.recovery == nil && ms.search == nil && ms.waiters == nil && ms.mc == nil &&
					ms.reply == nil && ms.bufferer == topology.NoNode && !ms.unrecovered {
					t.Fatalf("t=%v member %d: idle record for %v", c.sim.Now(), n, id)
				}
				if s := ms.search; s != nil {
					if s.done || s.ms != ms {
						t.Fatalf("t=%v member %d: search %v in its record is done=%v (record %v)", c.sim.Now(), n, id, s.done, s.ms.id)
					}
					if ms.bufferer != topology.NoNode && s.tries > 0 {
						t.Fatalf("t=%v member %d: live search %v at try %d has a known bufferer", c.sim.Now(), n, id, s.tries)
					}
					seenSearches[s] = seat{m, id}
					live[s] = true
				}
				if rec := ms.recovery; rec != nil {
					if rec.done || rec.ms != ms {
						t.Fatalf("t=%v member %d: recovery %v in its record is done=%v (record %v)", c.sim.Now(), n, id, rec.done, rec.ms.id)
					}
					seenRecoveries[rec] = seat{m, id}
					live[rec] = true
				}
				for _, b := range []*backoff{ms.mc, ms.reply} {
					if b != nil && (b.ms != ms || !b.timer.Armed()) {
						t.Fatalf("t=%v member %d: back-off of %v is unarmed or in another record", c.sim.Now(), n, id)
					}
				}
			}
		}
		free := map[any]bool{}
		for l := range lists {
			for _, ms := range l.msgs {
				if ms.m != nil || ms.recovery != nil || ms.search != nil || ms.mc != nil || ms.reply != nil {
					t.Fatalf("t=%v: a free message record holds state: %+v", c.sim.Now(), *ms)
				}
			}
			for _, rec := range l.recs {
				if !rec.done || rec.ms != nil || rec.localTimer.Armed() || rec.remoteTimer.Armed() {
					t.Fatalf("t=%v: a free recovery is live, in a record or armed", c.sim.Now())
				}
				free[rec] = true
			}
			for _, s := range l.searches {
				if !s.done || s.ms != nil || s.timer.Armed() || len(s.origins) > 0 {
					t.Fatalf("t=%v: a free search is live, in a record, armed or has origins", c.sim.Now())
				}
				free[s] = true
			}
			for _, b := range l.backoffs {
				if b.ms != nil || b.timer.Armed() || b.payload != nil {
					t.Fatalf("t=%v: a free back-off is in a record, armed or holds a payload", c.sim.Now())
				}
			}
		}
		for s, at := range seenSearches {
			if ms := at.m.record(at.id); ms == nil || ms.search != s {
				if !free[s] && !live[s] {
					t.Fatalf("t=%v: search %v left its record without going back on the free list", c.sim.Now(), at.id)
				}
				delete(seenSearches, s)
			}
		}
		for rec, at := range seenRecoveries {
			if ms := at.m.record(at.id); ms == nil || ms.recovery != rec {
				if !free[rec] && !live[rec] {
					t.Fatalf("t=%v: recovery %v left its record without going back on the free list", c.sim.Now(), at.id)
				}
				delete(seenRecoveries, rec)
			}
		}
	}

	// The crash leg: the receiver with the most records at 600 ms crashes
	// and recovers 400 ms later.
	type kept struct {
		waiters     []topology.NodeID
		bufferer    topology.NodeID
		unrecovered bool
	}
	count := func(m *Member) int {
		n := 0
		for range m.records {
			n++
		}
		return n
	}
	var victim topology.NodeID
	var before map[wire.MessageID]kept
	var episodes int
	c.sim.At(600*time.Millisecond, func() {
		most := -1
		for _, n := range c.all {
			if k := count(c.members[n]); n != c.topo.Sender() && k > most {
				victim, most = n, k
			}
		}
		m := c.members[victim]
		before = map[wire.MessageID]kept{}
		for ms := range m.records {
			if ms.recovery != nil || ms.search != nil || ms.mc != nil || ms.reply != nil {
				episodes++
			}
			if len(ms.waiters) > 0 || ms.bufferer != topology.NoNode || ms.unrecovered {
				before[ms.id] = kept{slices.Clone(ms.waiters), ms.bufferer, ms.unrecovered}
			}
		}
		c.crashNode(victim)
		for ms := range m.records {
			if ms.recovery != nil || ms.search != nil || ms.mc != nil || ms.reply != nil {
				t.Fatalf("member %d: %v keeps an episode or back-off across Crash", victim, ms.id)
			}
			k, ok := before[ms.id]
			if !ok || !slices.Equal(ms.waiters, k.waiters) || ms.bufferer != k.bufferer || ms.unrecovered != k.unrecovered {
				t.Fatalf("member %d: record %v is %+v after Crash, want %+v", victim, ms.id, *ms, k)
			}
		}
		if n := count(m); n != len(before) {
			t.Fatalf("member %d: %d records after Crash, want the %d that hold waiters, bufferers or unrecovered marks", victim, n, len(before))
		}
	})
	c.sim.At(time.Second, func() { c.recoverNode(victim) })

	for c.sim.Now() < 3*time.Second && c.sim.Step() {
		check()
	}
	if episodes == 0 || len(before) == 0 {
		t.Fatalf("crashed member %d held %d episodes and %d records to keep: the crash leg tested nothing", victim, episodes, len(before))
	}

	var searches, recoveries int64
	for _, m := range c.members {
		searches += m.Metrics().SearchesStarted.Value()
		recoveries += m.Metrics().LocalReqSent.Value()
	}
	hops := sum(c.tally.sent, wire.TypeSearch, c.all...)
	if searches < 20 || hops < 100 || recoveries < 100 {
		t.Fatalf("%d searches, %d SEARCH sends, %d local requests: the run did not exercise the episodes", searches, hops, recoveries)
	}
	t.Logf("%d searches, %d SEARCH sends, %d local requests; member %d crashed with %d episodes and %d kept records",
		searches, hops, recoveries, victim, episodes, len(before))
}

// BenchmarkSearchHop is one search-for-bufferer hop: pick a peer, send the
// SEARCH, re-arm the episode's retry timer. It allocates nothing.
func BenchmarkSearchHop(b *testing.B) {
	params := DefaultParams()
	params.MaxSearchTries = 1 << 62
	m := newCluster(b, singleRegion(b, 10), params, 1, nil).members[3]
	m.cfg.Transport = &countTransport{}
	s := m.newSearch(m.msg(wire.MessageID{Source: 0, Seq: 98}), 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.timer.Stop()
		m.searchAttempt(s)
	}
}
