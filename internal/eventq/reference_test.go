package eventq

// This file is the event queue as it stood before same-instant runs and
// tombstone cancel: a binary min-heap of *Event with eager O(log n)
// removal. It is kept verbatim (identifiers renamed ref*) as the oracle the
// differential test drives the production queue against.

import "time"

// refEvent is a callback scheduled to run at a virtual time.
type refEvent struct {
	at time.Duration
	// pushAt and src extend the ordering key for sharded simulation (see
	// PushKeyed). Push leaves both zero, so single-queue users keep the
	// plain (at, seq) order: with pushAt and src constant, the extended
	// comparison reduces to (at, seq) exactly.
	pushAt time.Duration
	src    int32
	seq    uint64
	fn     func()

	// index is the element's position in the heap, or -1 once removed.
	index int
	// gen increments every time the event struct is recycled into the
	// pool, invalidating stale handles held by cancelled timers.
	gen uint32
}

// At returns the virtual time the event is scheduled for.
func (e *refEvent) At() time.Duration { return e.at }

// Gen returns the event's current generation. A handle is only valid for
// Cancel together with the generation read immediately after Push.
func (e *refEvent) Gen() uint32 { return e.gen }

// refQueue is a min-heap of events ordered by (time, insertion sequence).
// The zero value is ready to use. refQueue is not safe for concurrent use.
type refQueue struct {
	heap    []*refEvent
	nextSeq uint64
	free    []*refEvent
}

// Len returns the number of pending events.
func (q *refQueue) Len() int { return len(q.heap) }

// Push schedules fn to run at virtual time at and returns a handle that can
// be passed to Remove or (with its Gen) Cancel. Scheduling in the past is
// allowed (the simulator clamps, firing such events "now").
func (q *refQueue) Push(at time.Duration, fn func()) *refEvent {
	return q.PushKeyed(at, 0, 0, fn)
}

// PushKeyed schedules fn at virtual time at under the extended ordering key
// (at, pushAt, src, seq). The sharded simulator uses it to merge event
// streams from several shards into one total order that matches what a
// single loop would have produced: pushAt is the virtual time the pushing
// context observed when it scheduled the event, src is a stable context
// index breaking cross-shard ties, and seq (assigned here) preserves each
// context's own push order. In a serial simulation pushAt is nondecreasing
// in seq, so (at, pushAt, src, seq) with constant src orders identically to
// the legacy (at, seq) key.
func (q *refQueue) PushKeyed(at, pushAt time.Duration, src int32, fn func()) *refEvent {
	var e *refEvent
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.at, e.pushAt, e.src, e.seq, e.fn, e.index = at, pushAt, src, q.nextSeq, fn, len(q.heap)
	} else {
		e = &refEvent{at: at, pushAt: pushAt, src: src, seq: q.nextSeq, fn: fn, index: len(q.heap)}
	}
	q.nextSeq++
	q.heap = append(q.heap, e)
	q.up(e.index)
	return e
}

// Peek returns the earliest event without removing it, or nil if empty.
func (q *refQueue) Peek() *refEvent {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Pop removes and returns the earliest event, or nil if the queue is empty.
// The event is NOT recycled: the caller owns the handle indefinitely (tests
// and diagnostics). Hot loops should use PopFire instead.
func (q *refQueue) Pop() *refEvent {
	if len(q.heap) == 0 {
		return nil
	}
	e := q.heap[0]
	q.removeAt(0)
	return e
}

// PopFire removes the earliest event and returns its (time, callback),
// recycling the event struct into the pool before the callback is exposed.
// It returns ok=false on an empty queue. This is the simulator's main-loop
// primitive: one event dispatch with zero allocation.
func (q *refQueue) PopFire() (at time.Duration, fn func(), ok bool) {
	if len(q.heap) == 0 {
		return 0, nil, false
	}
	e := q.heap[0]
	at, fn = e.at, e.fn
	q.removeAt(0)
	q.recycle(e)
	return at, fn, true
}

// Remove cancels a pending event. It returns false if the event already
// fired or was removed. Passing nil is a no-op returning false. The event is
// NOT recycled (the caller may hold the handle); pooled callers use Cancel.
func (q *refQueue) Remove(e *refEvent) bool {
	if e == nil || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index] != e {
		return false
	}
	q.removeAt(e.index)
	return true
}

// Cancel removes a pending event if the handle's generation still matches,
// recycling it into the pool. It returns false for a stale handle (the event
// fired, was cancelled, and possibly reused since) — the guarantee timers
// rely on: after a true Cancel the callback never runs, and a stale Stop
// can never kill an unrelated event that happens to reuse the struct.
func (q *refQueue) Cancel(e *refEvent, gen uint32) bool {
	if e == nil || e.gen != gen {
		return false
	}
	if e.index < 0 || e.index >= len(q.heap) || q.heap[e.index] != e {
		return false
	}
	q.removeAt(e.index)
	q.recycle(e)
	return true
}

// Fn returns the event callback. It remains valid after removal so the
// simulator can invoke it after popping.
func (e *refEvent) Fn() func() { return e.fn }

// recycle invalidates all outstanding handles to e and returns it to the
// free list. The callback reference is dropped so its closure can be GCed
// while the struct waits for reuse.
func (q *refQueue) recycle(e *refEvent) {
	e.gen++
	e.fn = nil
	q.free = append(q.free, e)
}

func (q *refQueue) removeAt(i int) {
	e := q.heap[i]
	last := len(q.heap) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap[last] = nil // allow GC of the event's closure
	q.heap = q.heap[:last]
	if i != last && i < len(q.heap) {
		if !q.down(i) {
			q.up(i)
		}
	}
	e.index = -1
}

func (q *refQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pushAt != b.pushAt {
		return a.pushAt < b.pushAt
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (q *refQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *refQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *refQueue) down(i int) bool {
	moved := false
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
		moved = true
	}
	return moved
}
