package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestBufferOpSequenceProperty drives a buffer with arbitrary interleaved
// operations and time advances, checking structural invariants at every
// step:
//
//   - 0 <= LongTermCount() <= Len()
//   - Has(id) agrees with Get(id)
//   - occupancy integral is non-decreasing over time
//   - every stored entry is eventually evicted exactly once (C=0) or
//     retained long-term, never both
func TestBufferOpSequenceProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Seq  uint8
		Dt   uint8
	}
	prop := func(ops []op, cRaw uint8) bool {
		s := sim.New()
		c := float64(cRaw%2) * 100 // either 0 (always discard) or 100 (always promote)
		evictions := make(map[wire.MessageID]int)
		stores := make(map[wire.MessageID]int)
		b := NewBuffer(Config{
			Policy: NewTwoPhase(testT, c, 100, 0),
			Sched:  s,
			Rng:    rng.New(1),
		})
		b.hooks().onEvict = func(e *Entry, _ EvictReason) {
			evictions[e.ID]++
		}
		var lastIntegral int64
		for _, o := range ops {
			id := wire.MessageID{Source: 0, Seq: uint64(o.Seq % 16)}
			switch o.Kind % 5 {
			case 0:
				if !b.Has(id) {
					stores[id]++
				}
				b.Store(id, []byte{o.Seq})
			case 1:
				b.OnRequest(id)
			case 2:
				b.Remove(id, EvictManual)
			case 3:
				if !b.Has(id) {
					stores[id]++
				}
				b.StoreLongTerm(id, nil)
			case 4:
				s.RunUntil(s.Now() + time.Duration(o.Dt%50)*time.Millisecond)
			}
			if b.LongTermCount() < 0 || b.LongTermCount() > b.Len() {
				return false
			}
			integral, _ := b.OccupancyIntegral(s.Now())
			if integral < lastIntegral {
				return false
			}
			lastIntegral = integral
			for seq := uint64(0); seq < 16; seq++ {
				probe := wire.MessageID{Source: 0, Seq: seq}
				_, ok := b.Get(probe)
				if ok != b.Has(probe) {
					return false
				}
			}
		}
		// Drain all timers; with C=0 everything not long-term must evict.
		s.RunUntil(s.Now() + time.Hour)
		for id, n := range evictions {
			// Never more evictions than distinct residencies.
			if n > stores[id] {
				return false
			}
		}
		// After drain with C=0, only long-term entries may remain.
		if c == 0 {
			for _, e := range b.Entries() {
				if e.State() != StateLongTerm {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferEvictionExactlyOnceProperty: an entry that is stored once and
// never re-stored is evicted at most once, and the eviction callback's
// entry matches what was stored.
func TestBufferEvictionExactlyOnceProperty(t *testing.T) {
	prop := func(seqs []uint8, ttlRaw uint8) bool {
		s := sim.New()
		ttl := time.Duration(ttlRaw%100+1) * time.Millisecond
		evicted := make(map[wire.MessageID]int)
		b := NewBuffer(Config{
			Policy: NewTwoPhase(testT, 50, 100, ttl), // 50% election
			Sched:  s,
			Rng:    rng.New(7),
		})
		b.hooks().onEvict = func(e *Entry, r EvictReason) {
			evicted[e.ID]++
			if r == EvictTTL && e.State() != StateLongTerm {
				// TTL evictions can only happen to long-term entries.
				evicted[e.ID] += 100
			}
		}
		stored := make(map[wire.MessageID]bool)
		for _, q := range seqs {
			id := wire.MessageID{Source: 1, Seq: uint64(q)}
			if !stored[id] {
				b.Store(id, nil)
				stored[id] = true
			}
		}
		s.RunUntil(s.Now() + 24*time.Hour)
		if b.Len() != 0 {
			return false // TTL set: everything must eventually drain
		}
		for id := range stored {
			if evicted[id] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
