package core

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Entry lifetime: an evicted entry is recycled for a later Store, so an
// *Entry is valid during OnEvict and, from Get or Entries, until it is
// evicted. These pin that a reused entry carries nothing of its previous
// life, that handoff entries are never reused, and that the store/evict
// cycle allocates nothing.

// parityHold is the two-phase policy with a zero hold (never idles) for
// even sequence numbers, so one buffer stores both armed and unarmed
// entries.
type parityHold struct{ *TwoPhase }

func (p parityHold) Hold(id wire.MessageID) (time.Duration, bool) {
	if id.Seq%2 == 0 {
		return 0, false
	}
	return p.TwoPhase.Hold(id)
}

func TestRecycledEntryStartsClean(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, parityHold{NewTwoPhase(testT, 100, 100, time.Second)}) // every idle entry is elected
	b.Store(id(2), []byte("keeps the buffer non-empty"))
	old := b.Store(id(1), []byte("first life"))
	s.RunUntil(testT)
	if old.State != StateLongTerm || old.PromotedAt != testT || !old.timer.Armed() {
		t.Fatalf("setup: entry 1 is %v promoted at %v, TTL armed %v", old.State, old.PromotedAt, old.timer.Armed())
	}
	s.RunUntil(50 * time.Millisecond)
	b.OnRequest(id(1))
	s.RunUntil(60 * time.Millisecond)
	b.Remove(id(1), EvictStable)

	check := func(e *Entry, seq uint64, payload []byte, armed bool) {
		t.Helper()
		now := s.Now()
		switch {
		case e != old:
			t.Fatalf("store of %d did not reuse the evicted entry", seq)
		case e.ID != id(seq) || !bytes.Equal(e.Payload, payload):
			t.Fatalf("reused entry holds %v %q, want %v %q", e.ID, e.Payload, id(seq), payload)
		case e.StoredAt != now || e.LastRequest != now:
			t.Fatalf("reused entry stored at %v, last request %v, want both %v", e.StoredAt, e.LastRequest, now)
		case e.State != StateShortTerm || e.PromotedAt != 0:
			t.Fatalf("reused entry is %v promoted at %v, want short-term, never promoted", e.State, e.PromotedAt)
		case e.timer.Armed() != armed:
			t.Fatalf("reused entry's timer armed = %v, want %v", e.timer.Armed(), armed)
		}
		if got, _ := b.Get(id(seq)); got != e {
			t.Fatalf("Get(%d) does not return the stored entry", seq)
		}
	}
	s.RunUntil(70 * time.Millisecond)
	check(b.Store(id(4), []byte("zero hold")), 4, []byte("zero hold"), false)
	b.Remove(id(4), EvictManual)
	s.RunUntil(80 * time.Millisecond)
	check(b.Store(id(5), []byte("armed")), 5, []byte("armed"), true)
	if b.LongTermCount() != 0 || b.Len() != 2 {
		t.Fatalf("long-term %d, len %d; want 0 and 2", b.LongTermCount(), b.Len())
	}
	// The reused entry's idle clock runs from its new store, not its old.
	var promotedAt time.Duration = -1
	b.cfg.OnPromote = func(*Entry) { promotedAt = s.Now() }
	s.RunUntil(time.Second)
	if want := 80*time.Millisecond + testT; promotedAt != want || old.PromotedAt != want {
		t.Fatalf("reused entry promoted at %v (reads %v), want %v", promotedAt, old.PromotedAt, want)
	}
}

func TestHandoffEntriesAreNotRecycled(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, BufferAll{})
	for seq := uint64(1); seq <= 20; seq++ {
		if seq%2 == 0 {
			b.StoreLongTerm(id(seq), []byte{byte(seq)})
		} else {
			b.Store(id(seq), []byte{byte(seq)})
		}
	}
	taken := b.TakeForHandoff()
	if len(taken) != 10 || b.Len() != 0 {
		t.Fatalf("took %d entries, %d left; want 10 and 0", len(taken), b.Len())
	}
	held := make(map[*Entry]bool)
	for seq := uint64(100); seq < 200; seq++ {
		held[b.Store(id(seq), []byte("later"))] = true
		if seq%2 == 1 {
			b.Remove(id(seq-1), EvictManual) // keep a spare cycling
		}
	}
	for i, e := range taken {
		seq := uint64(2 * (i + 1))
		if held[e] {
			t.Fatalf("handoff entry %d was reused by a later store", seq)
		}
		if e.ID != id(seq) || !bytes.Equal(e.Payload, []byte{byte(seq)}) || e.State != StateLongTerm {
			t.Fatalf("handoff entry %d now reads %v %v %v", seq, e.ID, e.Payload, e.State)
		}
	}
}

func TestOnEvictSeesEntryBeforeReuse(t *testing.T) {
	s := sim.New()
	b, _ := budgetBuffer(s, indexDense, 300)
	for seq := uint64(1); seq <= 3; seq++ {
		b.Store(id(seq), bytes.Repeat([]byte{byte(seq)}, 100))
	}
	var seen *Entry
	b.cfg.OnEvict = func(e *Entry, r EvictReason) {
		if e.ID != id(1) || r != EvictPressure || !bytes.Equal(e.Payload, bytes.Repeat([]byte{1}, 100)) {
			t.Errorf("OnEvict saw %v %v %q, want entry 1's pressure eviction", e.ID, r, e.Payload)
		}
		seen = e
	}
	e := b.Store(id(4), bytes.Repeat([]byte{4}, 100))
	if seen == nil || e != seen {
		t.Fatalf("store of 4 did not reuse the entry OnEvict saw (seen %p, stored %p)", seen, e)
	}
	if e.ID != id(4) || e.Payload[0] != 4 {
		t.Fatalf("reused entry reads %v %v", e.ID, e.Payload[0])
	}
}

// TestStoreSteadyStateAllocs pins Store at zero allocations once entries
// cycle: each run stores one message and advances the clock a quarter of
// the hold, so about four entries are live and each store reuses one the
// idle timer (unbudgeted) or the budget (one pressure eviction per store)
// evicted.
func TestStoreSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{{"unbudgeted", 0}, {"budget", 512}} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			b := NewBuffer(Config{
				Policy:     NewTwoPhase(testT, 0, 100, 0),
				Sched:      s,
				Rng:        rng.New(1),
				ByteBudget: tc.budget,
			})
			payload := make([]byte, 256)
			seq := uint64(0)
			cycle := func() {
				seq++
				b.Store(id(seq), payload)
				s.RunUntil(s.Now() + testT/4)
			}
			for range 256 {
				cycle()
			}
			pressure := b.EvictedCount(EvictPressure)
			const runs = 1000
			if n := testing.AllocsPerRun(runs, cycle); n != 0 {
				t.Fatalf("Store: %v allocs per store, want 0", n)
			}
			want := 0 // AllocsPerRun makes one warm-up call besides the runs
			if tc.budget > 0 {
				want = runs + 1
			}
			if got := b.EvictedCount(EvictPressure) - pressure; got != want {
				t.Fatalf("%d pressure evictions in %d stores, want %d", got, runs+1, want)
			}
		})
	}
}

// TestEntrySize keeps core.Entry at 112 bytes, the top of its size
// class; every buffered copy of every message is one. The pointer to the
// buffer holding it, which a shared Spares list needs, took the last
// eight bytes the class had free.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 112 {
		t.Fatalf("Entry is %d bytes, want 112", n)
	}
}

func TestEvictedCountOutOfRange(t *testing.T) {
	b, _ := newTestBuffer(t, sim.New(), BufferAll{})
	b.Store(id(1), nil)
	b.Remove(id(1), EvictManual)
	for _, r := range []EvictReason{-1, 0, EvictPressure + 1} {
		if n := b.EvictedCount(r); n != 0 {
			t.Errorf("EvictedCount(%d) = %d, want 0", int(r), n)
		}
	}
	if n := b.EvictedCount(EvictManual); n != 1 {
		t.Errorf("EvictedCount(EvictManual) = %d, want 1", n)
	}
}
