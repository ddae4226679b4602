package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

const testT = 40 * time.Millisecond // paper's idle threshold

func id(seq uint64) wire.MessageID { return wire.MessageID{Source: 0, Seq: seq} }

func newTestBuffer(t *testing.T, s *sim.Sim, p Policy) (*Buffer, *[]EvictReason) {
	t.Helper()
	evictions := &[]EvictReason{}
	b := NewBuffer(Config{
		Policy: p,
		Sched:  s,
		Rng:    rng.New(1),
	})
	b.hooks().onEvict = func(_ *Entry, r EvictReason) { *evictions = append(*evictions, r) }
	return b, evictions
}

func TestIdleDiscardAtThreshold(t *testing.T) {
	s := sim.New()
	b, ev := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0)) // C=0: never elect
	var evictedAt time.Duration = -1
	b.hooks().onEvict = func(e *Entry, r EvictReason) {
		evictedAt = s.Now()
		*ev = append(*ev, r)
	}
	b.Store(id(1), []byte("x"))
	s.RunUntil(-1)
	if evictedAt != testT {
		t.Fatalf("evicted at %v, want exactly T=%v", evictedAt, testT)
	}
	if len(*ev) != 1 || (*ev)[0] != EvictIdle {
		t.Fatalf("evictions %v", *ev)
	}
	if b.Len() != 0 {
		t.Fatalf("buffer len %d after idle discard", b.Len())
	}
}

func TestRequestFeedbackExtendsBuffering(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	var evictedAt time.Duration = -1
	b.hooks().onEvict = func(*Entry, EvictReason) { evictedAt = s.Now() }
	b.Store(id(1), nil)
	// Requests at 10, 20, 30 ms: each re-arms the idle window, so the entry
	// becomes idle only at 30ms + T = 70ms.
	for _, at := range []time.Duration{10, 20, 30} {
		at := at * time.Millisecond
		s.At(at, func() { b.OnRequest(id(1)) })
	}
	s.RunUntil(-1)
	want := 30*time.Millisecond + testT
	if evictedAt != want {
		t.Fatalf("evicted at %v, want %v (last request + T)", evictedAt, want)
	}
}

func TestOnRequestUnknownID(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	if b.OnRequest(id(99)) {
		t.Fatal("OnRequest on unknown id returned true")
	}
}

func TestDuplicateStoreIsNoOp(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	e1 := b.Store(id(1), []byte("first"))
	s.RunUntil(10 * time.Millisecond)
	e2 := b.Store(id(1), []byte("second"))
	if e1 != e2 {
		t.Fatal("duplicate store created a new entry")
	}
	if string(e1.Payload) != "first" {
		t.Fatal("duplicate store replaced payload")
	}
	if b.Len() != 1 {
		t.Fatalf("len %d", b.Len())
	}
}

func TestPromotionWithCertainElection(t *testing.T) {
	s := sim.New()
	// C = N makes the election probability 1.
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 100, 100, 0))
	promoted := 0
	b.hooks().onPromote = func(e *Entry) {
		promoted++
		if e.State() != StateLongTerm {
			t.Errorf("OnPromote saw state %v", e.State())
		}
		if e.PromotedAt != s.Now() {
			t.Errorf("PromotedAt %v, want %v", e.PromotedAt, s.Now())
		}
	}
	b.Store(id(1), nil)
	s.RunUntil(-1)
	if promoted != 1 {
		t.Fatalf("promoted %d entries", promoted)
	}
	if b.LongTermCount() != 1 || b.Len()-b.LongTermCount() != 0 {
		t.Fatalf("long=%d short=%d", b.LongTermCount(), b.Len()-b.LongTermCount())
	}
	if !b.Has(id(1)) {
		t.Fatal("long-term entry missing")
	}
}

func TestElectionRate(t *testing.T) {
	// Across many messages, the fraction elected should approach C/N.
	s := sim.New()
	const c, n, msgs = 6.0, 100, 20000
	b := NewBuffer(Config{
		Policy: NewTwoPhase(testT, c, n, 0),
		Sched:  s,
		Rng:    rng.New(42),
	})
	for i := uint64(0); i < msgs; i++ {
		b.Store(id(i), nil)
	}
	s.RunUntil(-1)
	got := float64(b.LongTermCount()) / msgs
	want := c / n
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("election rate %v, want ~%v", got, want)
	}
}

func TestLongTermTTLExpiry(t *testing.T) {
	s := sim.New()
	ttl := 500 * time.Millisecond
	b, ev := newTestBuffer(t, s, NewTwoPhase(testT, 100, 100, ttl))
	var evictedAt time.Duration
	b.hooks().onEvict = func(_ *Entry, r EvictReason) {
		evictedAt = s.Now()
		*ev = append(*ev, r)
	}
	b.Store(id(1), nil)
	s.RunUntil(-1)
	if len(*ev) != 1 || (*ev)[0] != EvictTTL {
		t.Fatalf("evictions %v, want one TTL eviction", *ev)
	}
	// Promoted at T (40ms); last touch was at store (t=0)... but promotion
	// re-checks from LastRequest; entry stored at 0, idle at 40ms, TTL armed
	// there; unused since t=0 so the TTL check at 40ms+500ms evicts.
	want := testT + ttl
	if evictedAt != want {
		t.Fatalf("TTL eviction at %v, want %v", evictedAt, want)
	}
}

func TestLongTermTTLReArmedByUse(t *testing.T) {
	s := sim.New()
	ttl := 100 * time.Millisecond
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 100, 100, ttl))
	var evictedAt time.Duration
	b.hooks().onEvict = func(*Entry, EvictReason) { evictedAt = s.Now() }
	b.Store(id(1), nil)
	// A use at 100ms (after promotion at 40ms) must push expiry to 200ms.
	s.At(100*time.Millisecond, func() { b.OnRequest(id(1)) })
	s.RunUntil(-1)
	if evictedAt != 200*time.Millisecond {
		t.Fatalf("TTL eviction at %v, want 200ms", evictedAt)
	}
}

func TestStoreLongTermDirect(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	e := b.StoreLongTerm(id(1), []byte("h"))
	if e.State() != StateLongTerm {
		t.Fatalf("state %v", e.State())
	}
	if b.LongTermCount() != 1 {
		t.Fatal("long-term count wrong")
	}
	s.RunUntil(-1)
	// C=0 would have discarded a short-term entry; the handoff copy stays.
	if !b.Has(id(1)) {
		t.Fatal("handoff entry evicted")
	}
}

func TestStoreLongTermLiftsExisting(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	b.Store(id(1), []byte("x"))
	e := b.StoreLongTerm(id(1), nil)
	if e.State() != StateLongTerm {
		t.Fatal("existing entry not lifted to long-term")
	}
	if b.Len() != 1 {
		t.Fatalf("len %d", b.Len())
	}
}

func TestTakeForHandoff(t *testing.T) {
	s := sim.New()
	b, ev := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	b.Store(id(1), nil)         // short-term
	b.StoreLongTerm(id(2), nil) // long-term
	b.StoreLongTerm(id(3), nil) // long-term
	got := b.TakeForHandoff()
	if len(got) != 2 {
		t.Fatalf("handoff returned %d entries, want 2 long-term", len(got))
	}
	for _, e := range got {
		if e.ID.Seq != 2 && e.ID.Seq != 3 {
			t.Fatalf("unexpected handoff entry %v", e.ID)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("buffer not emptied: %d", b.Len())
	}
	handoffs, manuals := 0, 0
	for _, r := range *ev {
		switch r {
		case EvictHandoff:
			handoffs++
		case EvictManual:
			manuals++
		}
	}
	if handoffs != 2 || manuals != 1 {
		t.Fatalf("evictions %v", *ev)
	}
}

func TestRemoveExternal(t *testing.T) {
	s := sim.New()
	b, ev := newTestBuffer(t, s, BufferAll{})
	b.Store(id(1), nil)
	if !b.Remove(id(1), EvictStable) {
		t.Fatal("Remove returned false")
	}
	if b.Remove(id(1), EvictStable) {
		t.Fatal("double Remove returned true")
	}
	if len(*ev) != 1 || (*ev)[0] != EvictStable {
		t.Fatalf("evictions %v", *ev)
	}
	if b.EvictedCount(EvictStable) != 1 {
		t.Fatal("EvictedCount(EvictStable) != 1")
	}
}

func TestBufferAllNeverIdles(t *testing.T) {
	s := sim.New()
	b, ev := newTestBuffer(t, s, BufferAll{})
	b.Store(id(1), nil)
	s.RunUntil(s.Now() + time.Hour)
	if b.Len() != 1 || len(*ev) != 0 {
		t.Fatalf("buffer-all evicted: len=%d evictions=%v", b.Len(), *ev)
	}
}

func TestFixedHoldIgnoresFeedback(t *testing.T) {
	s := sim.New()
	hold := 50 * time.Millisecond
	b, _ := newTestBuffer(t, s, &FixedHold{D: hold})
	var evictedAt time.Duration
	b.hooks().onEvict = func(*Entry, EvictReason) { evictedAt = s.Now() }
	b.Store(id(1), nil)
	s.At(40*time.Millisecond, func() { b.OnRequest(id(1)) }) // must not extend
	s.RunUntil(-1)
	if evictedAt != hold {
		t.Fatalf("fixed-hold evicted at %v, want %v", evictedAt, hold)
	}
}

func TestCloseStopsTimers(t *testing.T) {
	s := sim.New()
	b, ev := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	b.Store(id(1), nil)
	b.Close()
	s.RunUntil(-1)
	if len(*ev) != 0 {
		t.Fatalf("evictions after Close: %v", *ev)
	}
	if b.Len() != 0 {
		t.Fatal("entries survived Close")
	}
}

// TestOccupancyIntegral stores a second message while the first is held,
// so the integral must sum two overlapping residences of 40ms each, and
// reads it again after Close has dropped a third copy 10ms after storing
// it.
func TestOccupancyIntegral(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, NewTwoPhase(testT, 0, 100, 0))
	b.Store(id(1), make([]byte, 1000))
	s.At(10*time.Millisecond, func() { b.Store(id(2), make([]byte, 500)) })
	s.RunUntil(-1) // evicted at 40ms and 50ms
	msgNs, byteNs := b.OccupancyIntegral(s.Now())
	if want := 2 * int64(testT); msgNs != want {
		t.Fatalf("occupancy integral %d msg·ns, want %d", msgNs, want)
	}
	if want := 1500 * int64(testT); byteNs != want {
		t.Fatalf("byte occupancy %d B·ns, want %d", byteNs, want)
	}
	if b.PeakLen() != 2 || b.PeakBytes() != 1500 {
		t.Fatalf("peak %d entries, %d B; want 2 and 1500", b.PeakLen(), b.PeakBytes())
	}
	b.Store(id(3), make([]byte, 100))
	s.RunUntil(s.Now() + 10*time.Millisecond)
	b.Close()
	msgNs, byteNs = b.OccupancyIntegral(s.Now() + time.Second)
	if want := 2*int64(testT) + int64(10*time.Millisecond); msgNs != want {
		t.Fatalf("after Close: occupancy integral %d msg·ns, want %d", msgNs, want)
	}
	if want := 1500*int64(testT) + 100*int64(10*time.Millisecond); byteNs != want {
		t.Fatalf("after Close: byte occupancy %d B·ns, want %d", byteNs, want)
	}
}

func TestEntriesSnapshot(t *testing.T) {
	s := sim.New()
	b, _ := newTestBuffer(t, s, BufferAll{})
	b.Store(id(1), nil)
	b.Store(id(2), nil)
	es := b.Entries()
	if len(es) != 2 {
		t.Fatalf("entries %d", len(es))
	}
}

func TestNewBufferValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no policy": {Sched: sim.New()},
		"no sched":  {Policy: BufferAll{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewBuffer did not panic", name)
				}
			}()
			NewBuffer(cfg)
		}()
	}
}
