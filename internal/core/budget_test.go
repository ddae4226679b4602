package core

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// evictRecord is one observed eviction: which entry, why, in which phase it
// was, and how many short-term entries remained the moment it left.
type evictRecord struct {
	seq            uint64
	reason         EvictReason
	state          State
	shortRemaining int
}

// budgetBuffer builds a budgeted buffer over BufferAll (no timers: full
// manual control over phases via StoreLongTerm) and logs every eviction.
func budgetBuffer(s *sim.Sim, budget int) (*Buffer, *[]evictRecord) {
	log := &[]evictRecord{}
	b := NewBuffer(Config{
		Policy:     BufferAll{},
		Sched:      s,
		Rng:        rng.New(1),
		ByteBudget: budget,
	})
	b.hooks().onEvict = func(e *Entry, r EvictReason) {
		*log = append(*log, evictRecord{e.ID.Seq, r, e.State(), b.Len() - b.LongTermCount()})
	}
	return b, log
}

// TestPressureEvictionOrder pins the deterministic displacement order:
// short-term entries leave longest-idle first, and long-term copies are
// touched only once no short-term entry remains, oldest promotion first.
// The subtest names the index the buffer orders its victims by.
func TestPressureEvictionOrder(t *testing.T) {
	t.Run("IndexDense", func(t *testing.T) {
		s := sim.New()
		b, log := budgetBuffer(s, 1000)

		s.At(0, func() { b.StoreLongTerm(id(1), make([]byte, 100)) })                   // L1, promoted at 0
		s.At(10*time.Millisecond, func() { b.StoreLongTerm(id(2), make([]byte, 100)) }) // L2, promoted at 10ms
		s.At(20*time.Millisecond, func() { b.Store(id(3), make([]byte, 200)) })         // S1
		s.At(30*time.Millisecond, func() { b.Store(id(4), make([]byte, 200)) })         // S2
		s.At(40*time.Millisecond, func() { b.OnRequest(id(3)) })                        // S1 now fresher than S2
		// 600 B held; the 700 B store must displace S2 (idle since 30 ms)
		// then S1 (idle since 40 ms), and no long-term copy.
		s.At(50*time.Millisecond, func() {
			if e := b.Store(id(5), make([]byte, 700)); e == nil {
				t.Error("700 B store denied under a 1000 B budget")
			}
		})
		// 900 B held; the 900 B store must displace the remaining
		// short-term entry (seq 5) and then the oldest long-term copy (L1).
		s.At(60*time.Millisecond, func() {
			if e := b.Store(id(6), make([]byte, 900)); e == nil {
				t.Error("900 B store denied under a 1000 B budget")
			}
		})
		s.RunUntil(-1)

		want := []evictRecord{
			{4, EvictPressure, StateShortTerm, 1},
			{3, EvictPressure, StateShortTerm, 0},
			{5, EvictPressure, StateShortTerm, 0},
			{1, EvictPressure, StateLongTerm, 0},
		}
		if len(*log) != len(want) {
			t.Fatalf("evictions %+v, want %+v", *log, want)
		}
		for i, w := range want {
			if (*log)[i] != w {
				t.Fatalf("eviction %d = %+v, want %+v", i, (*log)[i], w)
			}
		}
		if got := b.EvictedCount(EvictPressure); got != 4 {
			t.Fatalf("EvictedCount(EvictPressure) = %d, want 4", got)
		}
		if b.Bytes() != 1000 || b.Len() != 2 {
			t.Fatalf("end state %d B / %d entries, want 1000 B / 2", b.Bytes(), b.Len())
		}
		if b.PeakBytes() != 1000 {
			t.Fatalf("PeakBytes %d, want 1000", b.PeakBytes())
		}
		if !b.Has(id(2)) || !b.Has(id(6)) {
			t.Fatal("survivors should be the newest long-term copy and the incoming store")
		}
	})
}

// TestBudgetDenials pins the overflow case: a payload larger than the whole
// budget is refused outright — nil entry, denial counted, nothing evicted.
// The subtest names the index the buffer orders its victims by.
func TestBudgetDenials(t *testing.T) {
	t.Run("IndexDense", func(t *testing.T) {
		s := sim.New()
		b, log := budgetBuffer(s, 100)
		if e := b.Store(id(1), make([]byte, 150)); e != nil {
			t.Fatal("oversized store accepted")
		}
		if e := b.Store(id(2), make([]byte, 60)); e == nil {
			t.Fatal("fitting store denied")
		}
		if e := b.StoreLongTerm(id(3), make([]byte, 101)); e != nil {
			t.Fatal("oversized handoff store accepted")
		}
		if b.DeniedCount() != 2 {
			t.Fatalf("DeniedCount %d, want 2", b.DeniedCount())
		}
		if len(*log) != 0 {
			t.Fatalf("denials must not evict; got %+v", *log)
		}
		if b.Len() != 1 || b.Bytes() != 60 {
			t.Fatalf("end state %d entries / %d B, want 1 / 60", b.Len(), b.Bytes())
		}
	})
}

// TestCopyPayloadSnapshotsContent verifies the copy-on-store knob: with it
// set, mutating the caller's slice after Store must not reach the buffered
// entry; without it, the entry aliases the caller's slice (the documented
// zero-copy default).
func TestCopyPayloadSnapshotsContent(t *testing.T) {
	for _, copyOn := range []bool{true, false} {
		s := sim.New()
		b := NewBuffer(Config{Policy: BufferAll{}, Sched: s, Rng: rng.New(1), CopyPayload: copyOn})
		payload := []byte{1, 2, 3, 4}
		e := b.Store(id(1), payload)
		payload[0] = 99
		if copyOn && e.Payload[0] != 1 {
			t.Fatal("CopyPayload entry saw the caller's mutation")
		}
		if !copyOn && e.Payload[0] != 99 {
			t.Fatal("zero-copy entry did not alias the caller's slice")
		}
	}
}

// TestBudgetEvictionOrderProperty drives randomized op scripts (stores of
// varying size, feedback, promotions, time advances) against a budgeted
// buffer and checks, at every step: the budget is never exceeded; the
// buffer's index agrees with the map oracle on its snapshot order and its
// pressure victim (mirrorAgrees); a long-term copy is pressure-evicted
// only when no short-term entry remains (so a region's last long-term copy
// is never sacrificed while cheaper short-term bytes exist); and the
// per-reason counters equal the observed eviction log (counter ≡ set).
func TestBudgetEvictionOrderProperty(t *testing.T) {
	const budget = 1 << 12
	for seed := uint64(1); seed <= 24; seed++ {
		s := sim.New()
		b, log := budgetBuffer(s, budget)
		r := rng.New(seed)
		at := time.Duration(0)
		for op, seq := 0, uint64(0); op < 400; op++ {
			at += time.Duration(r.Intn(5)) * time.Millisecond
			switch draw := r.Intn(10); {
			case draw < 5: // store a new short-term entry
				seq++
				sz, n := r.Intn(budget/3), seq
				s.At(at, func() { b.Store(id(n), make([]byte, sz)) })
			case draw < 7: // handoff-style long-term store
				seq++
				sz, n := r.Intn(budget/3), seq
				s.At(at, func() { b.StoreLongTerm(id(n), make([]byte, sz)) })
			case draw < 9: // feedback touch on a random known id
				if seq > 0 {
					n := uint64(r.Intn(int(seq))) + 1
					s.At(at, func() { b.OnRequest(id(n)) })
				}
			default: // promote a random known id if still buffered
				if seq > 0 {
					n := uint64(r.Intn(int(seq))) + 1
					s.At(at, func() {
						if b.Has(id(n)) {
							b.StoreLongTerm(id(n), nil)
						}
					})
				}
			}
			s.At(at, func() {
				if b.Bytes() > budget {
					t.Fatalf("seed %d: %d B held exceeds budget %d", seed, b.Bytes(), budget)
				}
				if err := mirrorAgrees(b, BufferAll{}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			})
		}
		s.RunUntil(-1)
		for i, rec := range *log {
			if rec.reason == EvictPressure && rec.state == StateLongTerm && rec.shortRemaining != 0 {
				t.Fatalf("seed %d: eviction %d displaced a long-term copy with %d short-term entries still held",
					seed, i, rec.shortRemaining)
			}
		}
		byReason := map[EvictReason]int{}
		for _, rec := range *log {
			byReason[rec.reason]++
		}
		for _, reason := range []EvictReason{EvictIdle, EvictTTL, EvictHandoff, EvictStable, EvictManual, EvictPressure} {
			if b.EvictedCount(reason) != byReason[reason] {
				t.Fatalf("seed %d: counter %v = %d but log has %d",
					seed, reason, b.EvictedCount(reason), byReason[reason])
			}
		}
	}
}
