package eventq

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// Allocation-regression guards for the queue's pooled hot paths. The scale
// rewrite (PR 3) brought steady-state event traffic to zero allocations per
// operation — every sweep cell pays these paths tens of thousands of times,
// so a single stray allocation here multiplies into megabytes of garbage
// per trial. These tests fail on the first regression instead of waiting
// for someone to read a benchmark diff.

// TestSteadyStatePushPopFireAllocs guards the simulator main loop's pooled
// fast path: Push into a warm heap, PopFire recycles the struct.
func TestSteadyStatePushPopFireAllocs(t *testing.T) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	// Warm the pool and the heap's backing array before measuring.
	for i := 0; i < 64; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.PopFire()
	}
	avg := testing.AllocsPerRun(200, func() {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.PopFire()
	})
	if avg != 0 {
		t.Fatalf("steady-state Push+PopFire allocates %.2f objects/op, want 0", avg)
	}
}

// TestTimerChurnCancelAllocs guards the protocol-timer path: push a timer
// event and cancel it through its generation-checked handle; the pool must
// hand the struct straight back.
func TestTimerChurnCancelAllocs(t *testing.T) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	for i := 0; i < 64; i++ {
		e := q.Push(time.Duration(r.Intn(1_000_000)), fn)
		if !q.Cancel(e, e.Gen()) {
			t.Fatal("failed to cancel a live event")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		e := q.Push(time.Duration(r.Intn(1_000_000)), fn)
		if !q.Cancel(e, e.Gen()) {
			t.Fatal("failed to cancel a live event")
		}
	})
	if avg != 0 {
		t.Fatalf("timer Push+Cancel allocates %.2f objects/op, want 0", avg)
	}
}

// TestSameInstantFanoutAllocs guards a multicast's delivery burst: 10 000
// events pushed for one instant ride as one run behind a random-time
// backlog and drain in order, with no allocation once the arena is warm.
func TestSameInstantFanoutAllocs(t *testing.T) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Hour+time.Duration(r.Intn(1_000_000)), fn)
	}
	at := time.Duration(0)
	fanout := func() {
		at++
		heap := len(q.heap)
		for j := 0; j < 10_000; j++ {
			q.PushKeyed(at, at, 0, fn)
		}
		if len(q.heap) != heap+1 {
			t.Fatalf("a 10 000-event burst took %d heap entries, want 1", len(q.heap)-heap)
		}
		for j := 0; j < 10_000; j++ {
			if got, _, _ := q.PopFire(); got != at {
				t.Fatalf("burst event popped at %v, want %v", got, at)
			}
		}
	}
	fanout() // warm the arena
	if avg := testing.AllocsPerRun(20, fanout); avg != 0 {
		t.Fatalf("same-instant fan-out allocates %.2f objects/op, want 0", avg)
	}
}

// TestInterleavedInstantsShareRuns guards concurrent sources interleaving a
// few instants: 16 instants pushed round-robin 10 000 times behind a
// 1 024-event backlog each ride as one run (the heap grows by exactly 16
// entries), drain in order, and allocate nothing once the arena is warm.
func TestInterleavedInstantsShareRuns(t *testing.T) {
	const instants, rounds = 16, 10_000
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Hour+time.Duration(r.Intn(1_000_000)), fn)
	}
	if len(q.heap) != 1024 {
		t.Fatalf("the backlog took %d heap entries, want 1024", len(q.heap))
	}
	base := time.Duration(0)
	interleave := func() {
		base += instants
		for j := 0; j < rounds; j++ {
			for i := time.Duration(0); i < instants; i++ {
				q.PushKeyed(base+i, base, 0, fn)
			}
		}
		if len(q.heap) != 1024+instants {
			t.Fatalf("%d interleaved instants took %d heap entries, want %d", instants, len(q.heap)-1024, instants)
		}
		for i := time.Duration(0); i < instants; i++ {
			for j := 0; j < rounds; j++ {
				if got, _, _ := q.PopFire(); got != base+i {
					t.Fatalf("interleaved event popped at %v, want %v", got, base+i)
				}
			}
		}
	}
	interleave() // warm the arena
	if avg := testing.AllocsPerRun(5, interleave); avg != 0 {
		t.Fatalf("interleaved instants allocate %.2f objects/op, want 0", avg)
	}
}

// TestCompactionAllocs guards the tombstone compaction: unlinking dead
// events, re-keying runs and re-heapifying happen in place.
func TestCompactionAllocs(t *testing.T) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 64; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	compactions := 0
	churn := func() {
		for i := 0; i < 2*compactMin; i++ {
			e := q.Push(time.Duration(r.Intn(1_000_000)), fn)
			q.Cancel(e, e.Gen())
			if q.dead == 0 {
				compactions++
			}
		}
		e := q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.Cancel(e, e.Gen())
		q.compact()
		compactions++
	}
	churn() // warm the arena
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("push/cancel/compact allocates %.2f objects/op, want 0", avg)
	}
	if compactions < 100 {
		t.Fatalf("only %d compactions measured", compactions)
	}
}

// TestTombstonesBounded is the memory bound tombstone cancel promises: under
// 10^5 push/cancel cycles around 1 000 live events (the timer churn of a
// retransmission-heavy run), the events the heap and its runs hold — live
// plus tombstones — never exceed 2·live + 64, and neither does the arena.
func TestTombstonesBounded(t *testing.T) {
	const live = 1000
	r := rng.New(7)
	var q Queue
	fn := func() {}
	type handle struct {
		e   *Event
		gen uint32
	}
	hs := make([]handle, live)
	now := time.Duration(0)
	for i := range hs {
		e := q.Push(time.Duration(r.Intn(1_000_000)), fn)
		hs[i] = handle{e, e.Gen()}
	}
	for cycle := 0; cycle < 100_000; cycle++ {
		i := r.Intn(live)
		if !q.Cancel(hs[i].e, hs[i].gen) {
			// Fired: its slot went back to the free list at once.
			hs[i] = handle{}
		}
		if cycle%10 == 0 {
			if at, _, ok := q.PopFire(); ok {
				now = at
			}
		}
		// Re-arm, half the time at a shared instant so runs form too.
		at := now + time.Duration(r.Intn(1_000_000))
		if r.Intn(2) == 0 {
			at = now + 1000
		}
		e := q.Push(at, fn)
		hs[i] = handle{e, e.Gen()}
		if held := q.live + q.dead; len(q.heap) > held || held > 2*q.Len()+64 {
			t.Fatalf("cycle %d: %d heap entries, %d live + %d tombstones", cycle, len(q.heap), q.live, q.dead)
		}
	}
	if q.Len() < live/2 {
		t.Fatalf("only %d events live at the end", q.Len())
	}
	if int(q.used) > 2*live+64 {
		t.Fatalf("arena grew to %d slots around %d live events", q.used, live)
	}
}
