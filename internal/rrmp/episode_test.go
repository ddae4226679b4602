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
	ms := m.msgs[id]
	return ms != nil && ms.recovery != nil
}

// TestEpisodeLivenessInvariant pins the facts the member's one table of
// per-message records relies on, after every event of a lossy,
// budget-starved run (three 10-member regions, 20 % loss on every PDU, a
// 2 KB budget, so members discard and searches run):
//
//   - an episode is reachable from its message's record exactly while it
//     is not done (checked both ways: no episode in a record is done, and
//     one that has left its record is), so a retry's liveness check reads
//     the episode's own flag;
//   - no live search that has made an attempt has a known bufferer, so
//     only an episode's first attempt reads it;
//   - the table holds no idle record.
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
	// Episodes seen in a record, until they are seen to have left it done.
	seenSearches := map[*searchState]*Member{}
	seenRecoveries := map[*recovery]*Member{}
	check := func() {
		for _, n := range c.all {
			m := c.members[n]
			for id, ms := range m.msgs {
				if ms.recovery == nil && ms.search == nil && ms.waiters == nil && !ms.mc.Armed() &&
					!ms.reply.Armed() && ms.bufferer == topology.NoNode && !ms.unrecovered {
					t.Fatalf("t=%v member %d: idle record for %v", c.sim.Now(), n, id)
				}
				if s := ms.search; s != nil {
					if s.done || s.id != id || s.msg != ms {
						t.Fatalf("t=%v member %d: search %v in its record is done=%v (id %v)", c.sim.Now(), n, id, s.done, s.id)
					}
					if ms.bufferer != topology.NoNode && s.tries > 0 {
						t.Fatalf("t=%v member %d: live search %v at try %d has a known bufferer", c.sim.Now(), n, id, s.tries)
					}
					seenSearches[s] = m
				}
				if rec := ms.recovery; rec != nil {
					if rec.done || rec.id != id {
						t.Fatalf("t=%v member %d: recovery %v in its record is done=%v (id %v)", c.sim.Now(), n, id, rec.done, rec.id)
					}
					seenRecoveries[rec] = m
				}
			}
		}
		for s, m := range seenSearches {
			if ms := m.msgs[s.id]; ms == nil || ms.search != s {
				if !s.done {
					t.Fatalf("t=%v: search %v left its record without being marked done", c.sim.Now(), s.id)
				}
				delete(seenSearches, s)
			}
		}
		for rec, m := range seenRecoveries {
			if ms := m.msgs[rec.id]; ms == nil || ms.recovery != rec {
				if !rec.done {
					t.Fatalf("t=%v: recovery %v left its record without being marked done", c.sim.Now(), rec.id)
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
	var victim topology.NodeID
	var before map[wire.MessageID]kept
	var episodes int
	c.sim.At(600*time.Millisecond, func() {
		most := -1
		for _, n := range c.all {
			if n != c.topo.Sender() && len(c.members[n].msgs) > most {
				victim, most = n, len(c.members[n].msgs)
			}
		}
		m := c.members[victim]
		before = map[wire.MessageID]kept{}
		for id, ms := range m.msgs {
			if ms.recovery != nil || ms.search != nil || ms.mc.Armed() || ms.reply.Armed() {
				episodes++
			}
			if len(ms.waiters) > 0 || ms.bufferer != topology.NoNode || ms.unrecovered {
				before[id] = kept{slices.Clone(ms.waiters), ms.bufferer, ms.unrecovered}
			}
		}
		c.crashNode(victim)
		for id, ms := range m.msgs {
			if ms.recovery != nil || ms.search != nil || ms.mc.Armed() || ms.reply.Armed() {
				t.Fatalf("member %d: %v keeps an episode or back-off across Crash", victim, id)
			}
			k, ok := before[id]
			if !ok || !slices.Equal(ms.waiters, k.waiters) || ms.bufferer != k.bufferer || ms.unrecovered != k.unrecovered {
				t.Fatalf("member %d: record %v is %+v after Crash, want %+v", victim, id, *ms, k)
			}
		}
		if len(m.msgs) != len(before) {
			t.Fatalf("member %d: %d records after Crash, want the %d that hold waiters, bufferers or unrecovered marks", victim, len(m.msgs), len(before))
		}
	})
	c.sim.At(time.Second, func() { c.recoverNode(victim) })

	for c.sim.Now() < 3*time.Second && c.sim.Step() {
		check()
	}
	if episodes == 0 || len(before) == 0 {
		t.Fatalf("crashed member %d held %d episodes and %d records to keep: the crash leg tested nothing", victim, episodes, len(before))
	}

	var searches, hops, recoveries int64
	for _, m := range c.members {
		searches += m.Metrics().SearchesStarted.Value()
		hops += m.Metrics().SearchForwards.Value()
		recoveries += m.Metrics().LocalReqSent.Value()
	}
	if searches < 20 || hops < 100 || recoveries < 100 {
		t.Fatalf("%d searches, %d hops, %d local requests: the run did not exercise the episodes", searches, hops, recoveries)
	}
	t.Logf("%d searches, %d search hops, %d local requests; member %d crashed with %d episodes and %d kept records",
		searches, hops, recoveries, victim, episodes, len(before))
}

// BenchmarkSearchHop is one search-for-bufferer hop: pick a peer, send the
// SEARCH, re-arm the episode's retry timer. It allocates nothing.
func BenchmarkSearchHop(b *testing.B) {
	params := DefaultParams()
	params.MaxSearchTries = 1 << 62
	m := newCluster(b, singleRegion(b, 10), params, 1, nil).members[3]
	m.cfg.Transport = &countTransport{}
	id := wire.MessageID{Source: 0, Seq: 98}
	s := m.newSearch(m.msg(id), id, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.timer.Stop()
		m.searchAttempt(s)
	}
}
