package eventq

import (
	"testing"
	"time"
)

// TestPopFireRecyclesIntoPush proves the pool works: the struct fired by
// PopFire is handed back to the very next Push, and its generation has
// advanced so handles from the first life are stale.
func TestPopFireRecyclesIntoPush(t *testing.T) {
	var q Queue
	e1 := q.Push(1, func() {})
	gen1 := e1.Gen()
	at, fn, ok := q.PopFire()
	if !ok || at != 1 || fn == nil {
		t.Fatalf("PopFire = (%v, fn==nil:%v, %v)", at, fn == nil, ok)
	}
	e2 := q.Push(2, func() {})
	if e2 != e1 {
		t.Fatal("fired event was not recycled into the next Push")
	}
	if e2.Gen() == gen1 {
		t.Fatal("generation did not advance across recycling")
	}
}

// TestCancelRefusesStaleHandle is the safety property pooling depends on: a
// Stop on a timer whose event already fired must never cancel the unrelated
// event that since reused the struct.
func TestCancelRefusesStaleHandle(t *testing.T) {
	var q Queue
	e := q.Push(1, func() {})
	stale := e.Gen()
	if _, _, ok := q.PopFire(); !ok {
		t.Fatal("PopFire on a non-empty queue failed")
	}
	reborn := q.Push(2, func() {}) // reuses the struct
	if reborn != e {
		t.Fatal("expected struct reuse for this test's premise")
	}
	if q.Cancel(e, stale) {
		t.Fatal("stale handle cancelled the reborn event")
	}
	if q.Len() != 1 {
		t.Fatalf("queue length %d, want 1", q.Len())
	}
	if !q.Cancel(reborn, reborn.Gen()) {
		t.Fatal("fresh handle failed to cancel its own event")
	}
	if q.Cancel(reborn, reborn.Gen()) {
		t.Fatal("double Cancel succeeded")
	}
}

// TestCancelOrderingUnchanged replays a deterministic push/cancel/fire mix
// through the pooled path and checks the (time, insertion) total order
// survives recycling.
func TestCancelOrderingUnchanged(t *testing.T) {
	var q Queue
	var fired []int
	type handle struct {
		e   *Event
		gen uint32
	}
	var hs []handle
	push := func(at time.Duration, tag int) {
		e := q.Push(at, func() { fired = append(fired, tag) })
		hs = append(hs, handle{e, e.Gen()})
	}
	push(30, 0)
	push(10, 1)
	push(20, 2)
	if !q.Cancel(hs[2].e, hs[2].gen) {
		t.Fatal("cancel failed")
	}
	push(10, 3) // same instant as tag 1: must fire after it
	push(5, 4)
	for {
		_, f, ok := q.PopFire()
		if !ok {
			break
		}
		f.Fire()
	}
	want := []int{4, 1, 3, 0}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}
