package rrmp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestEpisodeLivenessInvariant pins the two facts the retry path relies on
// instead of MessageID-keyed lookups, after every event of a lossy,
// budget-starved run (three 10-member regions, 20 % loss on every PDU, a
// 2 KB budget, so members discard and searches run):
//
//   - an episode is in Member.searches / Member.recoveries exactly while it
//     is not done (checked both ways: no episode in a map is done, and one
//     that has left its map is), so a retry's liveness check reads the
//     episode's own flag;
//   - no live search that has made an attempt has a knownBufferer entry
//     for its message, so only an episode's first attempt reads that map.
func TestEpisodeLivenessInvariant(t *testing.T) {
	params := DefaultParams()
	params.ByteBudget = 2048
	loss := &netsim.BernoulliLoss{P: 0.2, Rng: rng.New(17)}
	c := newCluster(t, chainRegions(t, 10, 10, 10), params, 5, loss)
	c.sender.StartSessions()
	for i := 0; i < 40; i++ {
		c.sim.At(time.Duration(i)*10*time.Millisecond, func() { c.sender.Publish(make([]byte, 512)) })
	}
	// Episodes seen in a map, until they are seen to have left it done.
	seenSearches := map[*searchState]*Member{}
	seenRecoveries := map[*recovery]*Member{}
	check := func() {
		for _, n := range c.all {
			m := c.members[n]
			for id, s := range m.searches {
				if s.done || s.id != id {
					t.Fatalf("t=%v member %d: search %v in the map is done=%v (id %v)", c.sim.Now(), n, id, s.done, s.id)
				}
				if _, hit := m.knownBufferer[id]; hit && s.tries > 0 {
					t.Fatalf("t=%v member %d: live search %v at try %d has a knownBufferer entry", c.sim.Now(), n, id, s.tries)
				}
				seenSearches[s] = m
			}
			for id, rec := range m.recoveries {
				if rec.done || rec.id != id {
					t.Fatalf("t=%v member %d: recovery %v in the map is done=%v (id %v)", c.sim.Now(), n, id, rec.done, rec.id)
				}
				seenRecoveries[rec] = m
			}
		}
		for s, m := range seenSearches {
			if m.searches[s.id] != s {
				if !s.done {
					t.Fatalf("t=%v: search %v left Member.searches without being marked done", c.sim.Now(), s.id)
				}
				delete(seenSearches, s)
			}
		}
		for rec, m := range seenRecoveries {
			if m.recoveries[rec.id] != rec {
				if !rec.done {
					t.Fatalf("t=%v: recovery %v left Member.recoveries without being marked done", c.sim.Now(), rec.id)
				}
				delete(seenRecoveries, rec)
			}
		}
	}
	for c.sim.Now() < 3*time.Second && c.sim.Step() {
		check()
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
	t.Logf("%d searches, %d search hops, %d local requests", searches, hops, recoveries)
}

// BenchmarkSearchHop is one search-for-bufferer hop: pick a peer, send the
// SEARCH, re-arm the episode's retry timer. It allocates nothing.
func BenchmarkSearchHop(b *testing.B) {
	params := DefaultParams()
	params.MaxSearchTries = 1 << 62
	m := newCluster(b, singleRegion(b, 10), params, 1, nil).members[3]
	m.cfg.Transport = &countTransport{}
	s := m.newSearch(wire.MessageID{Source: 0, Seq: 98}, 12)
	m.searches[s.id] = s
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.timer.Stop()
		m.searchAttempt(s)
	}
}
