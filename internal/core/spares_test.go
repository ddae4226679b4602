package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Shared spares: buffers on one event loop may share one Spares list, so
// an entry one buffer evicts serves the next store at another. These pin
// that a reused entry belongs to the buffer that took it (its timer fires
// into that buffer, never into the one that evicted it), that sharing
// changes no eviction, promotion or snapshot, and the list's bound.

// sharedPair returns two buffers on s sharing one Spares list, each with
// its own policy, and one log of both buffers' evictions and promotions.
func sharedPair(s *sim.Sim, pa, pb Policy) (a, b *Buffer, sp *Spares, log *[]string) {
	sp, log = new(Spares), &[]string{}
	mk := func(name string, p Policy) *Buffer {
		return NewBuffer(Config{
			Policy: p,
			Sched:  s,
			Rng:    rng.New(1),
			Spares: sp,
			OnEvict: func(e *Entry, r EvictReason) {
				*log = append(*log, fmt.Sprintf("%s %v %v at %v", name, e.ID.Seq, r, s.Now()))
			},
			OnPromote: func(e *Entry) {
				*log = append(*log, fmt.Sprintf("%s %v promoted at %v", name, e.ID.Seq, s.Now()))
			},
		})
	}
	return mk("A", pa), mk("B", pb), sp, log
}

func TestSharedSparesServeAnotherBuffer(t *testing.T) {
	s := sim.New()
	a, b, sp, log := sharedPair(s, BufferAll{}, NewTwoPhase(testT, 0, 100, 0))
	old := a.Store(id(1), []byte("at A"))
	a.Remove(id(1), EvictManual)
	if len(sp.entries) != 1 {
		t.Fatalf("the list holds %d spares after A's eviction, want 1", len(sp.entries))
	}
	s.RunUntil(10 * time.Millisecond)
	e := b.Store(id(7), []byte("at B"))
	if e != old {
		t.Fatal("B's store did not reuse the entry A evicted")
	}
	if e.buf != b || e.ID != id(7) || e.StoredAt != 10*time.Millisecond || e.State != StateShortTerm {
		t.Fatalf("reused entry reads buffer %p (B is %p), %v stored at %v, %v", e.buf, b, e.ID, e.StoredAt, e.State)
	}
	// B's idle timer fires into B: the entry idles out of B at its own T.
	s.RunUntil(time.Second)
	want := []string{"A 1 manual at 0s", "B 7 idle at 50ms"}
	if !slices.Equal(*log, want) || b.Len() != 0 || a.Len() != 0 {
		t.Fatalf("evictions %q with %d left at B, want %q and none", *log, b.Len(), want)
	}
}

// TestSharedSparesCancelledTimerNeverFires reuses an entry at B, for the
// same message, right after A evicted it with its idle or TTL event still
// pending. B never idles, so the entry must stay at B, short-term: an A
// event that reached it would find it held under its id and run B's idle
// check on it, which promotes it.
func TestSharedSparesCancelledTimerNeverFires(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
		evict  time.Duration // when A evicts: before the idle check, or with the TTL armed
		reason EvictReason
		want   []string // the whole log
	}{
		{"idle", NewTwoPhase(testT, 0, 100, 0), testT / 2, EvictManual,
			[]string{"A 1 manual at 20ms"}},
		{"ttl", NewTwoPhase(testT, 100, 100, time.Second), 2 * testT, EvictStable,
			[]string{"A 1 promoted at 40ms", "A 1 stable at 80ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			a, b, _, log := sharedPair(s, tc.policy, BufferAll{})
			old := a.Store(id(1), []byte("m"))
			s.RunUntil(tc.evict)
			if !old.timer.Armed() {
				t.Fatalf("setup: A's entry is %v with no timer armed", old.State)
			}
			a.Remove(id(1), tc.reason)
			if e := b.Store(id(1), []byte("m")); e != old {
				t.Fatal("B's store did not reuse the entry A evicted")
			}
			s.RunUntil(10 * time.Second)
			if e, ok := b.Get(id(1)); !ok || e != old || e.State != StateShortTerm {
				t.Fatalf("B holds the message: %v, %v; want it held short-term", ok, e.State)
			}
			if !slices.Equal(*log, tc.want) {
				t.Fatalf("log %q, want %q", *log, tc.want)
			}
		})
	}
}

// TestSharedSparesBound drains three buffers that share a list. Every
// entry made was live at once, and every one comes back, so after the
// drain the list holds exactly the summed peak of live entries. A handoff
// entry never comes back.
func TestSharedSparesBound(t *testing.T) {
	s := sim.New()
	sp := new(Spares)
	made := map[*Entry]bool{}
	var bufs []*Buffer
	for i := range 3 {
		bufs = append(bufs, NewBuffer(Config{
			Policy: NewTwoPhase(testT, 0, 100, 0),
			Sched:  s,
			Rng:    rng.New(uint64(i)),
			Spares: sp,
		}))
	}
	live, peak := 0, 0
	for step := range 60 {
		at := time.Duration(step) * time.Millisecond
		s.RunUntil(at)
		for i, b := range bufs {
			if step%(i+2) == 0 { // the buffers fill at different rates
				made[b.Store(id(uint64(step)), nil)] = true
			}
		}
		live = 0
		for _, b := range bufs {
			live += b.Len()
		}
		peak = max(peak, live)
		if len(made) != live+len(sp.entries) {
			t.Fatalf("at %v: %d entries made, %d live and %d spare", at, len(made), live, len(sp.entries))
		}
	}
	s.RunUntil(time.Second)
	for _, b := range bufs {
		if b.Len() != 0 {
			t.Fatalf("a buffer holds %d entries after the drain", b.Len())
		}
	}
	if len(sp.entries) != peak || len(made) != peak {
		t.Fatalf("after the drain: %d spares, %d entries made, summed peak %d; want all equal", len(sp.entries), len(made), peak)
	}
	// A handoff entry is the caller's: it leaves the list's count.
	bufs[0].StoreLongTerm(id(100), nil)
	if got := bufs[0].TakeForHandoff(); len(got) != 1 || len(sp.entries) != peak-1 {
		t.Fatalf("handoff took %d entries and left %d spares, want 1 and %d", len(got), len(sp.entries), peak-1)
	}
}

// FuzzSharedSparesDifferential runs one byte-decoded script over three
// buffers twice: once sharing one Spares list, once each with its own.
// Recycling is invisible to the protocol, so the two worlds must log the
// same evictions and promotions (buffer, message, reason, time) and hold
// the same entries after every op; the shared list must also hold no more
// than the summed peak of live entries, minus what is live now.
func FuzzSharedSparesDifferential(f *testing.F) {
	f.Add([]byte{0, 9, 18, 3, 1, 10, 4, 4, 2, 11, 5, 4, 4, 4})
	f.Add([]byte{0, 1, 2, 8, 9, 10, 16, 17, 18, 6, 4, 4, 0, 1, 2, 7, 4, 4, 4, 4})
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		script := make([]byte, 300)
		for i := range script {
			script[i] = byte(r.Uint64())
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			t.Skip()
		}
		shared, own := newSparesWorld(new(Spares)), newSparesWorld(nil)
		live, peak, logged := 0, 0, 0
		for step, op := range script {
			shared.apply(op)
			own.apply(op)
			if !slices.Equal(shared.log[logged:], own.log[min(logged, len(own.log)):]) {
				t.Fatalf("step %d: shared spares logged %q, own lists %q", step, shared.log[logged:], own.log[min(logged, len(own.log)):])
			}
			logged = len(shared.log)
			for i := range shared.bufs {
				if a, b := shared.snapshot(i), own.snapshot(i); a != b {
					t.Fatalf("step %d: buffer %d holds %s shared, %s on its own list", step, i, a, b)
				}
			}
			live = 0
			for _, b := range shared.bufs {
				live += b.Len()
			}
			peak = max(peak, live)
			if n := len(shared.spares.entries); n > peak-live {
				t.Fatalf("step %d: %d spares with %d live, summed peak %d", step, n, live, peak)
			}
		}
	})
}

// sparesWorld is three buffers on one simulator, electing a third of
// their idle entries long-term, with one TTL.
type sparesWorld struct {
	s      *sim.Sim
	bufs   []*Buffer
	spares *Spares
	log    []string
}

func newSparesWorld(sp *Spares) *sparesWorld {
	w := &sparesWorld{s: sim.New(), spares: sp}
	for i := range 3 {
		w.bufs = append(w.bufs, NewBuffer(Config{
			Policy: NewTwoPhase(testT, 1, 3, 200*time.Millisecond),
			Sched:  w.s,
			Rng:    rng.New(uint64(i) + 1),
			Spares: sp,
			OnEvict: func(e *Entry, r EvictReason) {
				w.log = append(w.log, fmt.Sprintf("%d evict %d %v at %v", i, e.ID.Seq, r, w.s.Now()))
			},
			OnPromote: func(e *Entry) {
				w.log = append(w.log, fmt.Sprintf("%d promote %d at %v", i, e.ID.Seq, w.s.Now()))
			},
		}))
	}
	return w
}

// apply decodes one op byte: the low three bits pick the op, the next two
// the buffer, the top three the message (eight ids, so buffers store the
// same messages, as a region's members do).
func (w *sparesWorld) apply(op byte) {
	b := w.bufs[int(op>>3&3)%len(w.bufs)]
	m := id(uint64(op >> 5))
	switch op & 7 {
	case 0, 1:
		b.Store(m, []byte{op})
	case 2:
		b.OnRequest(m)
	case 3:
		b.Remove(m, EvictManual)
	case 4:
		w.s.RunUntil(w.s.Now() + time.Duration(op>>3)*3*time.Millisecond)
	case 5:
		b.StoreLongTerm(m, []byte{op})
	case 6:
		b.Remove(m, EvictStable)
	case 7:
		for _, e := range b.TakeForHandoff() {
			w.log = append(w.log, fmt.Sprintf("handoff %d", e.ID.Seq))
		}
	}
}

// snapshot renders buffer i's entries, in id order, with every field.
func (w *sparesWorld) snapshot(i int) string {
	var out []string
	for _, e := range w.bufs[i].Entries() {
		out = append(out, fmt.Sprintf("%v %q %v %v %v %v %v",
			e.ID, e.Payload, e.StoredAt, e.LastRequest, e.State, e.PromotedAt, e.timer.Armed()))
	}
	return fmt.Sprint(out)
}
