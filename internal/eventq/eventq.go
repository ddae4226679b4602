// Package eventq implements the ordered event queue at the heart of the
// discrete-event simulator.
//
// Events are totally ordered by the key (at, pushAt, src, seq); seq is
// assigned on insertion, so events one context schedules for the same
// instant fire in insertion order. This total order is what makes
// whole-system simulations deterministic.
//
// The queue is a 4-ary min-heap of keys held by value beside an arena slot
// index, so a heap slot holds no pointer. Events live in arena chunks that
// never move, so the *Event handles Push returns stay valid.
//
// Same-instant runs: a push that shares (at, pushAt, src) with the newest
// pending run at its instant is linked behind that run's tail in the arena
// and never enters the heap (the timers one instant's deliveries arm, and
// the deliveries of several sends landing at one instant, arrive this
// way). Its seq is the highest yet, so the run stays sorted. Run tails are
// found through a 256-slot index direct-mapped by instant, so concurrent
// sources interleaving a handful of instants still join their runs; a
// slot lost to a colliding instant, or a push from another (pushAt, src),
// only costs that push a heap entry of its own. The heap holds one entry
// per run, keyed by its head; a run's events share all of the key but seq,
// so an event keeps only its seq, and popping a head moves its successor's
// seq into the root with one sift-down. Runs are sorted, so merging them
// pops events in exactly the order a heap of single events would.
//
// An event holds a clock.Firer, so a timer's owner queues itself;
// PushKeyed wraps a plain func() in a clock.Func.
//
// Counted events: PushN schedules one Firer to fire n times in a row
// from one slot, the way n pushes of it with consecutive sequence numbers
// would. PopFire fires the head and leaves the slot at the root until its
// count reaches zero, so no other event can fire between its firings, and
// none could have between n single pushes either: nothing else holds a
// sequence number between theirs. A multicast's n deliveries that land at
// one instant on one loop are one such event.
//
// Cancel is a tombstone: the dead event is discarded when it surfaces at
// the root. Once tombstones outnumber live events (and number compactMin or
// more) an O(n) compaction unlinks them all, re-keys each run whose head
// died by its first live member and re-heapifies, so the queue holds at
// most 2·Len() + compactMin events.
//
// Slots are recycled by later pushes, so steady-state simulation allocates
// no queue memory; holders must keep the Gen observed at Push time and
// cancel through Cancel, which refuses a stale generation. PushN and
// CancelRef do the same with the slot's 32-bit reference in place of the
// *Event, which is what a clock.Handle stores.
package eventq

import (
	"time"

	"repro/internal/clock"
)

const (
	chunkBits  = 9
	chunkSize  = 1 << chunkBits
	compactMin = 32
	tailBits   = 8
)

// Event is the handle of a scheduled callback. Its (at, pushAt, src) are
// its run's, kept in the heap entry; its seq lets it become the run's head.
type Event struct {
	f   clock.Firer
	seq uint64
	gen uint32 // advances when the event fires or is cancelled
	// next is the slot ref of the next run member while the event is held,
	// of the next free slot while it is free; 0 for none.
	next uint32
	// fires is how many more times the event fires; it is pending while
	// fires > 0.
	fires uint32
}

// Gen returns the event's current generation. A handle is only valid for
// Cancel together with the generation read immediately after Push.
func (e *Event) Gen() uint32 { return e.gen }

// entry is one heap slot: a run head's key and its slot ref.
type entry struct {
	at, pushAt time.Duration
	seq        uint64
	src        int32
	ref        uint32
}

// Queue is an event queue ordered by (at, pushAt, src, seq). The zero value
// is ready to use. Queue is not safe for concurrent use.
type Queue struct {
	heap       []entry
	chunks     []*[chunkSize]Event
	used, free uint32 // slots handed out (refs 1..used); first free ref
	live, dead int    // pending events; cancelled events still held
	nextSeq    uint64
	// tails[tailSlot(at)] caches the tail of the newest run at instant at,
	// pushed at pushAt by src, valid while the event in slot ref still has
	// generation gen.
	tails [1 << tailBits]struct {
		at, pushAt time.Duration
		src        int32
		ref, gen   uint32
	}
}

// tailSlot is the tails index of instant at: a Fibonacci hash, so the
// instants of one simulation spread over the slots.
func tailSlot(at time.Duration) uint64 {
	return uint64(at) * 0x9e3779b97f4a7c15 >> (64 - tailBits)
}

// Len returns the number of pending events; a counted event is one however
// many firings it has left.
func (q *Queue) Len() int { return q.live }

// PushKeyed schedules fn at virtual time at under the extended ordering key
// (at, pushAt, src, seq). The sharded simulator uses it to merge event
// streams from several shards into one total order that matches what a
// single loop would have produced: pushAt is the virtual time the pushing
// context observed when it scheduled the event, src is a stable context
// index breaking cross-shard ties, and seq (assigned here) preserves each
// context's own push order. In a serial simulation pushAt is nondecreasing
// in seq, so (at, pushAt, src, seq) with constant src orders identically to
// the legacy (at, seq) key.
func (q *Queue) PushKeyed(at, pushAt time.Duration, src int32, fn func()) *Event {
	_, e := q.push(at, pushAt, src, 1, clock.Func(fn))
	return e
}

// PushN schedules f to fire n (>= 1) times in a row under one key, as n
// PushKeyed calls in a row would, and returns the event's slot reference
// and generation, two words, in place of an *Event; CancelRef takes them
// and cancels the firings still due.
func (q *Queue) PushN(at, pushAt time.Duration, src int32, n uint32, f clock.Firer) (ref, gen uint32) {
	if n == 0 {
		panic("eventq: PushN of zero firings")
	}
	ref, e := q.push(at, pushAt, src, n, f)
	return ref, e.gen
}

// CancelRef is Cancel for the event PushN returned as (ref, gen).
func (q *Queue) CancelRef(ref, gen uint32) bool {
	if ref == 0 || ref > q.used {
		return false
	}
	return q.Cancel(q.event(ref), gen)
}

// push places a pending event of n firings under the key and returns its
// slot.
func (q *Queue) push(at, pushAt time.Duration, src int32, n uint32, f clock.Firer) (uint32, *Event) {
	seq := q.nextSeq
	q.nextSeq++
	q.live++
	ref := q.alloc(seq, n, f)
	e := q.event(ref)
	// A cached tail whose generation matches is pending, so alloc never
	// hands out its slot; it takes the new event if it shares the run's key.
	t := &q.tails[tailSlot(at)]
	if t.ref != 0 && t.at == at && t.pushAt == pushAt && t.src == src {
		if tail := q.event(t.ref); tail.gen == t.gen {
			tail.next = ref
			t.ref, t.gen = ref, e.gen
			return ref, e
		}
	}
	q.heap = append(q.heap, entry{})
	q.up(len(q.heap)-1, entry{at: at, pushAt: pushAt, seq: seq, src: src, ref: ref})
	t.at, t.pushAt, t.src, t.ref, t.gen = at, pushAt, src, ref, e.gen
	return ref, e
}

// NextAt returns the time of the earliest pending event, discarding the
// cancelled events ahead of it; ok is false when nothing is pending.
func (q *Queue) NextAt() (at time.Duration, ok bool) {
	for len(q.heap) > 0 {
		ref := q.heap[0].ref
		e := q.event(ref)
		if e.fires > 0 {
			return q.heap[0].at, true
		}
		q.popHead(e)
		q.release(ref)
		q.dead--
	}
	return 0, false
}

// PopFire fires the earliest pending event once and returns its (time,
// Firer). An event with firings left stays at the head; on its last
// firing its slot is recycled before the Firer is exposed. It returns
// ok=false when nothing is pending. This is the simulator's main-loop
// primitive: one event dispatch with zero allocation.
func (q *Queue) PopFire() (at time.Duration, f clock.Firer, ok bool) {
	if at, ok = q.NextAt(); !ok {
		return 0, nil, false
	}
	ref := q.heap[0].ref
	e := q.event(ref)
	f = e.f
	if e.fires > 1 {
		e.fires--
		return at, f, true
	}
	q.popHead(e)
	q.retire(e)
	q.release(ref)
	return at, f, true
}

// Cancel cancels a pending event, every firing it has left, if the
// handle's generation still matches. It returns false for a stale handle
// (the event fired, was cancelled, and possibly reused since) — the
// guarantee timers rely on: after a true Cancel the callback never runs
// again, and a stale Stop can never kill an unrelated event that happens
// to reuse the slot.
func (q *Queue) Cancel(e *Event, gen uint32) bool {
	if e == nil || e.gen != gen || e.fires == 0 {
		return false
	}
	q.dead++
	q.retire(e)
	return true
}

// event returns the event in slot ref (1-based).
func (q *Queue) event(ref uint32) *Event {
	ref--
	return &q.chunks[ref>>chunkBits][ref&(chunkSize-1)]
}

// alloc fills a free slot, or a fresh one, with a pending event.
func (q *Queue) alloc(seq uint64, n uint32, f clock.Firer) uint32 {
	ref := q.free
	if ref != 0 {
		q.free = q.event(ref).next
	} else {
		if q.used == uint32(len(q.chunks))<<chunkBits {
			q.chunks = append(q.chunks, new([chunkSize]Event))
		}
		q.used++
		ref = q.used
	}
	e := q.event(ref)
	e.f, e.seq, e.next, e.fires = f, seq, 0, n
	return ref
}

// retire ends a pending event's life (fired, or cancelled and counted in
// dead by the caller) and compacts once tombstones outnumber live events.
func (q *Queue) retire(e *Event) {
	e.gen++
	e.f, e.fires = nil, 0
	q.live--
	if q.dead > q.live && q.dead >= compactMin {
		q.compact()
	}
}

// release returns a retired event's slot to the free list.
func (q *Queue) release(ref uint32) {
	q.event(ref).next = q.free
	q.free = ref
}

// popHead removes the root's head event e from its run: its successor's
// seq takes the root, or the root entry goes when the run is exhausted.
func (q *Queue) popHead(e *Event) {
	if next := e.next; next != 0 {
		r := &q.heap[0]
		r.seq, r.ref = q.event(next).seq, next
	} else {
		n := len(q.heap) - 1
		q.heap[0] = q.heap[n]
		q.heap = q.heap[:n]
	}
	q.down(0)
}

// compact frees every dead event, re-keys each run by its first live member,
// drops runs with none, and restores the heap order.
func (q *Queue) compact() {
	w := 0
	for _, h := range q.heap {
		var head uint32
		link := &head
		for ref := h.ref; ref != 0; {
			e := q.event(ref)
			next := e.next
			if e.fires > 0 {
				*link, link = ref, &e.next
			} else {
				q.release(ref)
			}
			ref = next
		}
		*link = 0
		if head == 0 {
			continue
		}
		h.seq, h.ref = q.event(head).seq, head
		q.heap[w] = h
		w++
	}
	q.heap = q.heap[:w]
	q.dead = 0
	for i := (w - 2) / 4; i >= 0; i-- {
		q.down(i)
	}
}

func less(a, b *entry) bool {
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

// up places x at hole i or above it; down places h[i] at i or below it.
// Both move the hole rather than swapping, one entry write per level.
func (q *Queue) up(i int, x entry) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 4
		if !less(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (q *Queue) down(i int) {
	h := q.heap
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		m := 4*i + 1
		if m >= len(h) {
			break
		}
		for j, end := m+1, min(m+4, len(h)); j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
