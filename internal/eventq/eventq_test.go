package eventq

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// drain fires every pending event in order.
func drain(q *Queue) {
	for {
		_, fn, ok := q.PopFire()
		if !ok {
			return
		}
		fn()
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Push(30*time.Millisecond, func() { got = append(got, 3) })
	q.Push(10*time.Millisecond, func() { got = append(got, 1) })
	q.Push(20*time.Millisecond, func() { got = append(got, 2) })
	drain(&q)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Push(5*time.Millisecond, func() { got = append(got, i) })
	}
	drain(&q)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of insertion order: %v", got)
		}
	}
}

func TestRemove(t *testing.T) {
	var q Queue
	fired := make(map[int]bool)
	type handle struct {
		e   *Event
		gen uint32
	}
	mk := func(i int, at time.Duration) handle {
		e := q.Push(at, func() { fired[i] = true })
		return handle{e, e.Gen()}
	}
	h1 := mk(1, 10)
	h2 := mk(2, 20)
	h3 := mk(3, 30)
	if !q.Cancel(h2.e, h2.gen) {
		t.Fatal("Cancel(e2) = false")
	}
	if q.Cancel(h2.e, h2.gen) {
		t.Fatal("second Cancel(e2) = true")
	}
	if q.Len() != 2 {
		t.Fatalf("Len after Cancel = %d, want 2", q.Len())
	}
	drain(&q)
	if !fired[1] || fired[2] || !fired[3] {
		t.Fatalf("fired = %v, want 1 and 3 only", fired)
	}
	if q.Cancel(h1.e, h1.gen) || q.Cancel(h3.e, h3.gen) {
		t.Fatal("Cancel after PopFire returned true")
	}
	if q.Cancel(nil, 0) {
		t.Fatal("Cancel(nil) = true")
	}
}

func TestRemoveHead(t *testing.T) {
	var q Queue
	e1 := q.Push(10, func() {})
	q.Push(20, func() {})
	if !q.Cancel(e1, e1.Gen()) {
		t.Fatal("Cancel head failed")
	}
	if got, ok := q.NextAt(); !ok || got != 20 {
		t.Fatalf("head after cancel at (%v, %v), want 20", got, ok)
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if _, fn, ok := q.PopFire(); ok || fn != nil {
		t.Fatal("PopFire on empty queue succeeded")
	}
	if _, ok := q.NextAt(); ok {
		t.Fatal("NextAt on empty queue succeeded")
	}
	// A queue holding only a cancelled event is empty too.
	e := q.Push(5, func() {})
	q.Cancel(e, e.Gen())
	if _, ok := q.NextAt(); ok || q.Len() != 0 {
		t.Fatalf("NextAt ok=%v, Len=%d over a lone tombstone", ok, q.Len())
	}
	if _, _, ok := q.PopFire(); ok {
		t.Fatal("PopFire fired a cancelled event")
	}
}

func TestPeekMatchesPop(t *testing.T) {
	var q Queue
	q.Push(7, func() {})
	e := q.Push(3, func() {})
	q.Push(5, func() {})
	check := func(want time.Duration) {
		t.Helper()
		next, ok := q.NextAt()
		at, _, popped := q.PopFire()
		if !ok || !popped || next != at || at != want {
			t.Fatalf("NextAt = (%v, %v), PopFire = (%v, %v), want %v", next, ok, at, popped, want)
		}
	}
	check(3)
	e = q.Push(5, func() {}) // joins the run at 5
	q.Cancel(e, e.Gen())
	check(5)
	check(7)
}

// TestHeapPropertyRandomized is a property test: for any sequence of pushes
// with arbitrary times, popping yields a non-decreasing time sequence, and
// equal times preserve insertion order.
func TestHeapPropertyRandomized(t *testing.T) {
	prop := func(times []uint16) bool {
		var q Queue
		type rec struct {
			at  time.Duration
			seq int
		}
		var popped []rec
		for i, raw := range times {
			at := time.Duration(raw % 64) // force many collisions
			i := i
			q.Push(at, func() { popped = append(popped, rec{at, i}) })
		}
		drain(&q)
		if len(popped) != len(times) {
			return false
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool {
			if popped[i].at != popped[j].at {
				return popped[i].at < popped[j].at
			}
			return popped[i].seq < popped[j].seq
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedRemoval interleaves pushes and cancels and checks exactly
// the survivors fire, in order.
func TestRandomizedRemoval(t *testing.T) {
	prop := func(ops []uint16) bool {
		var q Queue
		type handle struct {
			e   *Event
			gen uint32
		}
		var handles []handle
		var firedTimes []time.Duration
		for _, op := range ops {
			if op%3 == 0 && len(handles) > 0 {
				h := handles[int(op)%len(handles)]
				q.Cancel(h.e, h.gen)
			} else {
				at := time.Duration(op % 128)
				e := q.Push(at, func() { firedTimes = append(firedTimes, at) })
				handles = append(handles, handle{e, e.Gen()})
			}
		}
		pending := q.Len()
		drain(&q)
		if len(firedTimes) != pending {
			return false
		}
		return sort.SliceIsSorted(firedTimes, func(i, j int) bool { return firedTimes[i] < firedTimes[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
