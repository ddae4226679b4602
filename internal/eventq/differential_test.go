package eventq

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
)

// The differential test drives Queue and the frozen binary heap
// (reference_test.go) through the same program of pushes, pops and cancels
// and requires identical observable behaviour after every step: the popped
// (time, tag) sequence, Len, NextAt and every Cancel result. Programs come
// from seeded generators (TestQueueDifferential) or raw fuzz bytes
// (FuzzQueueDifferential); one interpreter reads both.

// source feeds the interpreter: op codes and argument bytes.
type source interface {
	more() bool
	op() byte
	arg() byte
}

// byteSource reads a program from raw bytes; missing bytes read as zero.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) more() bool { return s.i < len(s.b) }
func (s *byteSource) op() byte   { return s.arg() }
func (s *byteSource) arg() byte {
	if s.i >= len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

// Op byte layout: the low nibble selects the operation, the high nibble a
// push's time mode (bits 5-7) and whether its key is lane-like (bit 4).
const (
	opPush      = 0  // 0-5: push one event
	opBurst     = 6  // push 2-15 events at one instant
	opPop       = 7  // 7-9: PopFire
	opFireAt    = 10 // fire every event at the earliest instant, then push at it again
	opCancel    = 11 // 11-13: cancel a pending event
	opCancelAny = 14 // cancel any handle ever issued (mostly stale)
	opCancelAgn = 15 // cancel the last cancelled handle again
)

// Program styles: the time modes (see instant) a seeded program uses.
var styles = [][]byte{
	{0, 1, 2, 3, 4, 6},       // clustered
	{0, 1, 2},                // equal
	{3, 4, 5, 7},             // random
	{0, 1, 2, 3, 4, 5, 6, 7}, // mixed
}

// rngSource generates a program in phases (grow, churn, shrink) so queues
// fill, turn over and empty, crossing the compaction threshold repeatedly.
// Every byte it hands out is recorded, so a program can be replayed
// through byteSource (the fuzz seeds are such recordings).
type rngSource struct {
	r       *rng.Source
	n       int
	modes   []byte
	weights [4]int // push, burst, pop, cancel (per mille); the rest are fire-at/stale/double
	left    int
	rec     []byte
}

func newRNGSource(seed uint64, n int) *rngSource {
	r := rng.New(seed)
	return &rngSource{r: r, n: n, modes: styles[r.Intn(len(styles))]}
}

func (s *rngSource) more() bool { return s.n > 0 }

func (s *rngSource) op() byte {
	s.n--
	if s.left == 0 {
		s.left = 50 + s.r.Intn(200)
		s.weights = [][4]int{
			{550, 120, 150, 150}, // grow
			{250, 40, 200, 480},  // churn
			{80, 20, 420, 450},   // shrink
		}[s.r.Intn(3)]
	}
	s.left--
	var kind byte
	switch x := s.r.Intn(1000); {
	case x < s.weights[0]:
		kind = opPush
	case x < s.weights[0]+s.weights[1]:
		kind = opBurst
	case x < s.weights[0]+s.weights[1]+s.weights[2]:
		kind = opPop
	case x < s.weights[0]+s.weights[1]+s.weights[2]+s.weights[3]:
		kind = opCancel
	default:
		kind = []byte{opFireAt, opCancelAny, opCancelAgn}[s.r.Intn(3)]
	}
	mode := s.modes[s.r.Intn(len(s.modes))]
	lane := byte(0)
	if s.r.Intn(4) == 0 {
		lane = 1
	}
	b := kind | lane<<4 | mode<<5
	s.rec = append(s.rec, b)
	return b
}

func (s *rngSource) arg() byte {
	b := byte(s.r.Intn(256))
	s.rec = append(s.rec, b)
	return b
}

// diffCoverage counts what the programs exercised, so the test can assert
// its own reach.
type diffCoverage struct {
	steps, pushes, pops                                   int
	runJoins, lowPushAt, mixedSrc, pushAfterTailFired     int
	otherRunJoins, slotCollisions, keyRefusals            int
	tailFired, tailCancelled, tailReleased                int
	cancelHead, cancelMiddle, cancelTail, cancelSingleton int
	staleCancels, doubleCancels                           int
	compactions, promoted                                 int
}

type diffHandle struct {
	e         *Event
	gen       uint32
	r         *refEvent
	rgen      uint32
	at        time.Duration
	pushAt    time.Duration
	cancelled bool
	fired     bool
}

// tailKey names one life of an event slot: the handle and its generation.
type tailKey struct {
	e   *Event
	gen uint32
}

type differ struct {
	t   testing.TB
	q   Queue
	ref refQueue
	cov *diffCoverage

	hs         []diffHandle
	tagOf      map[tailKey]int
	pend       []int // tags of pending events
	pos        []int // tag -> index in pend
	firedNew   int
	firedRef   int
	now        time.Duration
	lastCancel int
}

func runProgram(t testing.TB, src source, cov *diffCoverage) {
	d := &differ{t: t, cov: cov, lastCancel: -1, tagOf: map[tailKey]int{}}
	for src.more() {
		d.step(src)
		d.compare()
		cov.steps++
	}
	for d.q.Len() > 0 || d.ref.Len() > 0 {
		d.pop()
		d.compare()
	}
}

func (d *differ) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: %s", d.cov.steps, fmt.Sprintf(format, args...))
}

func (d *differ) step(src source) {
	op := src.op()
	kind, lane, mode := op&15, op>>4&1 == 1, op>>5
	switch {
	case kind <= 5:
		d.push(d.instant(mode, src), lane, src)
	case kind == opBurst:
		at := d.instant(mode, src)
		for n := 2 + int(src.arg()%14); n > 0; n-- {
			d.push(at, lane, src)
		}
	case kind <= 9:
		d.pop()
	case kind == opFireAt:
		at, ok := d.q.NextAt()
		if !ok {
			return
		}
		for {
			next, ok := d.q.NextAt()
			if !ok || next != at {
				break
			}
			d.pop()
		}
		d.push(at, lane, src)
	case kind <= 13:
		if len(d.pend) == 0 {
			return
		}
		i := (int(src.arg())<<8 | int(src.arg())) % len(d.pend)
		d.cancel(d.pend[i])
	case kind == opCancelAny:
		if len(d.hs) == 0 {
			return
		}
		d.cancel((int(src.arg())<<8 | int(src.arg())) % len(d.hs))
	default:
		if d.lastCancel >= 0 {
			d.cancel(d.lastCancel)
		}
	}
}

// instant picks a push time: the previous push's instant, a pending
// event's instant, the clock, another instant in a pending instant's tails
// slot, a little or a lot after the clock, or slightly in the past.
func (d *differ) instant(mode byte, src source) time.Duration {
	last := d.now
	if n := len(d.hs); n > 0 {
		last = d.hs[n-1].at
	}
	switch mode {
	case 0:
		return last
	case 1:
		if len(d.pend) == 0 {
			return last
		}
		return d.pendingAt(src)
	case 2:
		return d.now
	case 3:
		if len(d.pend) == 0 {
			return d.now + 1 + time.Duration(src.arg()%4)
		}
		at := d.pendingAt(src)
		slot := tailSlot(at)
		b := at + 1 + time.Duration(src.arg())
		for tailSlot(b) != slot {
			b++
		}
		return b
	case 4:
		return d.now + time.Duration(src.arg()%32)
	case 5:
		return d.now + time.Duration(int(src.arg())<<8|int(src.arg()))
	case 6:
		return d.now + 1000*time.Duration(src.arg()%8)
	default:
		return max(0, d.now-time.Duration(src.arg()%4))
	}
}

// pendingAt returns the instant of the pending event two argument bytes pick.
func (d *differ) pendingAt(src source) time.Duration {
	return d.hs[d.pend[(int(src.arg())<<8|int(src.arg()))%len(d.pend)]].at
}

func (d *differ) push(at time.Duration, lane bool, src source) {
	pushAt, s := d.now, int32(0)
	var prev *diffHandle
	if n := len(d.hs); n > 0 {
		prev = &d.hs[n-1]
	}
	if lane {
		// Lane-like keys: barrier and outbox pushes carry an older pushAt
		// (possibly below the current run tail's) and another context's src.
		k := src.arg()
		switch k % 4 {
		case 1:
			pushAt -= time.Duration((k >> 2) % 4)
		case 2:
			if prev != nil {
				pushAt = prev.pushAt - 1 - time.Duration((k>>2)%3)
			}
		case 3:
			pushAt = at - time.Duration((k>>2)%8)
		}
		s = int32((k>>4)%4) - 1
	}
	if prev != nil && prev.at == at {
		if prev.fired {
			d.cov.pushAfterTailFired++
		}
		if pushAt < prev.pushAt {
			d.cov.lowPushAt++
		}
	}
	if s != 0 {
		d.cov.mixedSrc++
	}
	tag := len(d.hs)
	before, t := len(d.q.heap), d.q.tails[tailSlot(at)]
	d.classifyProbe(at, pushAt, s)
	e := d.q.PushKeyed(at, pushAt, s, func() { d.firedNew = tag })
	r := d.ref.PushKeyed(at, pushAt, s, func() { d.firedRef = tag })
	if len(d.q.heap) == before {
		d.cov.runJoins++
		if prev == nil || d.q.event(t.ref) != prev.e || t.gen != prev.gen {
			d.cov.otherRunJoins++
		}
	}
	d.tagOf[tailKey{e, e.Gen()}] = tag
	d.hs = append(d.hs, diffHandle{e: e, gen: e.Gen(), r: r, rgen: r.Gen(), at: at, pushAt: pushAt})
	d.pos = append(d.pos, len(d.pend))
	d.pend = append(d.pend, tag)
	d.cov.pushes++
}

// classifyProbe counts what a push at (at, pushAt, src) finds in its tails
// slot: another instant's live tail, a tail that fired, was cancelled or
// has since been released, or a live tail whose key orders after the push.
func (d *differ) classifyProbe(at, pushAt time.Duration, src int32) {
	t := d.q.tails[tailSlot(at)]
	if t.ref == 0 {
		return
	}
	tail := d.q.event(t.ref)
	switch {
	case t.at != at:
		if tail.gen == t.gen {
			d.cov.slotCollisions++
		}
	case tail.gen == t.gen:
		if pushAt < tail.pushAt || pushAt == tail.pushAt && src < tail.src {
			d.cov.keyRefusals++
		}
	case d.hs[d.tagOf[tailKey{tail, t.gen}]].fired:
		d.cov.tailFired++
	case tail.live || tail.gen != t.gen+1 || d.isFree(t.ref):
		d.cov.tailReleased++
	default:
		d.cov.tailCancelled++
	}
}

// isFree reports whether slot ref is on the queue's free list.
func (d *differ) isFree(ref uint32) bool {
	for f := d.q.free; f != 0; f = d.q.event(f).next {
		if f == ref {
			return true
		}
	}
	return false
}

func (d *differ) settle(tag int) {
	i := d.pos[tag]
	last := d.pend[len(d.pend)-1]
	d.pend[i], d.pos[last] = last, i
	d.pend = d.pend[:len(d.pend)-1]
}

func (d *differ) pop() {
	at, fn, ok := d.q.PopFire()
	rat, rfn, rok := d.ref.PopFire()
	if ok != rok || at != rat {
		d.fail("PopFire = (%v, %v), reference (%v, %v)", at, ok, rat, rok)
	}
	if !ok {
		return
	}
	fn()
	rfn()
	if d.firedNew != d.firedRef {
		d.fail("PopFire at %v fired tag %d, reference tag %d", at, d.firedNew, d.firedRef)
	}
	h := &d.hs[d.firedNew]
	if h.fired || h.cancelled {
		d.fail("tag %d fired twice or after its cancel", d.firedNew)
	}
	h.fired = true
	d.settle(d.firedNew)
	d.now = at
	d.cov.pops++
}

func (d *differ) cancel(tag int) {
	h := &d.hs[tag]
	where := d.locate(h.e, h.gen)
	compacting := d.q.dead+1 > d.q.live-1 && d.q.dead+1 >= compactMin
	promotable := 0
	if compacting && where != "" {
		promotable = d.promotable(h.e)
	}
	ok := d.q.Cancel(h.e, h.gen)
	rok := d.ref.Cancel(h.r, h.rgen)
	if ok != rok {
		d.fail("Cancel(tag %d) = %v, reference %v", tag, ok, rok)
	}
	if (where != "") != ok {
		d.fail("Cancel(tag %d) = %v but the event is held as %q", tag, ok, where)
	}
	if !ok {
		if tag == d.lastCancel && h.cancelled {
			d.cov.doubleCancels++
		} else {
			d.cov.staleCancels++
		}
		return
	}
	switch where {
	case "head":
		d.cov.cancelHead++
	case "middle":
		d.cov.cancelMiddle++
	case "tail":
		d.cov.cancelTail++
	default:
		d.cov.cancelSingleton++
	}
	if d.q.dead == 0 {
		d.cov.compactions++
		d.cov.promoted += promotable
	}
	h.cancelled = true
	d.settle(tag)
	d.lastCancel = tag
}

// locate reports where a pending handle sits in its run ("head",
// "middle", "tail", "single"), or "" if the handle is not pending.
func (d *differ) locate(e *Event, gen uint32) string {
	if !e.live || e.gen != gen {
		return ""
	}
	for _, h := range d.q.heap {
		n, at := 0, -1
		for ref := h.ref; ref != 0; ref = d.q.event(ref).next {
			if d.q.event(ref) == e {
				at = n
			}
			n++
		}
		switch {
		case at < 0:
		case n == 1:
			return "single"
		case at == 0:
			return "head"
		case at == n-1:
			return "tail"
		default:
			return "middle"
		}
	}
	d.fail("pending event not found in any run")
	return ""
}

// promotable counts the runs a compaction must re-key: a dead head (or the
// about-to-be-cancelled e at a head) followed by a live member.
func (d *differ) promotable(e *Event) int {
	n := 0
	for _, h := range d.q.heap {
		head := d.q.event(h.ref)
		if head.live && head != e {
			continue
		}
		for ref := head.next; ref != 0; ref = d.q.event(ref).next {
			if s := d.q.event(ref); s.live && s != e {
				n++
				break
			}
		}
	}
	return n
}

func (d *differ) compare() {
	if d.q.Len() != d.ref.Len() {
		d.fail("Len = %d, reference %d", d.q.Len(), d.ref.Len())
	}
	at, ok := d.q.NextAt()
	p := d.ref.Peek()
	if ok != (p != nil) || ok && at != p.At() {
		d.fail("NextAt = (%v, %v), reference head %v", at, ok, p)
	}
	if d.q.Len() != len(d.pend) {
		d.fail("Len = %d with %d tags pending", d.q.Len(), len(d.pend))
	}
	checkStructure(d.t, &d.q)
}

// checkStructure verifies the queue's invariants: the 4-ary heap order,
// every run sorted and keyed by its head, the live/dead counts, every slot
// either held once or free, the tombstone bound, and the tails index: a
// slot whose generation still matches names the tail of a run at its
// instant.
func checkStructure(t testing.TB, q *Queue) {
	t.Helper()
	h := q.heap
	for i := 1; i < len(h); i++ {
		if less(&h[i], &h[(i-1)/4]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
	seen := make([]bool, q.used+1)
	runAt := make([]time.Duration, q.used+1)
	live, dead := 0, 0
	for _, ent := range h {
		prev := entry{at: ent.at, pushAt: ent.pushAt, seq: ent.seq, src: ent.src}
		for ref := ent.ref; ref != 0; ref = q.event(ref).next {
			if seen[ref] {
				t.Fatalf("slot %d held twice", ref)
			}
			seen[ref] = true
			runAt[ref] = ent.at
			e := q.event(ref)
			cur := entry{at: ent.at, pushAt: e.pushAt, seq: e.seq, src: e.src}
			if ref == ent.ref {
				if cur != prev {
					t.Fatalf("heap entry key %+v differs from its head's %+v", prev, cur)
				}
			} else if !less(&prev, &cur) {
				t.Fatalf("run out of order: %+v before %+v", prev, cur)
			}
			prev = cur
			if e.live {
				live++
			} else {
				dead++
			}
		}
	}
	if live != q.live || dead != q.dead {
		t.Fatalf("held %d live + %d dead, counters say %d + %d", live, dead, q.live, q.dead)
	}
	free := 0
	for ref := q.free; ref != 0; ref = q.event(ref).next {
		if seen[ref] || q.event(ref).live {
			t.Fatalf("slot %d both free and held", ref)
		}
		seen[ref] = true
		free++
	}
	if live+dead+free != int(q.used) {
		t.Fatalf("%d held + %d free slots, %d handed out", live+dead, free, q.used)
	}
	if q.dead > max(q.live, compactMin-1) {
		t.Fatalf("%d tombstones beside %d live events", q.dead, q.live)
	}
	for i, c := range q.tails {
		if c.ref == 0 || q.event(c.ref).gen != c.gen {
			continue
		}
		if tailSlot(c.at) != uint64(i) {
			t.Fatalf("tails slot %d holds instant %v of slot %d", i, c.at, tailSlot(c.at))
		}
		if e := q.event(c.ref); !e.live || e.next != 0 || runAt[c.ref] != c.at {
			t.Fatalf("tails slot %d (instant %v) names slot %d, not a run tail at that instant", i, c.at, c.ref)
		}
	}
}

// TestQueueDifferential runs 320 seeded programs (clustered, equal, random
// and mixed times; sim-like and lane-like keys; grow, churn and shrink
// phases) through both queues and asserts what they covered.
func TestQueueDifferential(t *testing.T) {
	var cov diffCoverage
	for seed := uint64(1); seed <= 320; seed++ {
		runProgram(t, newRNGSource(seed, 1200), &cov)
	}
	t.Logf("%+v", cov)
	for _, c := range []struct {
		name string
		n    int
		min  int
	}{
		{"pushes joining a run", cov.runJoins, 10000},
		{"same-instant pushes with pushAt below the tail's", cov.lowPushAt, 100},
		{"pushes from a non-zero src", cov.mixedSrc, 1000},
		{"pushes after the run's tail fired", cov.pushAfterTailFired, 100},
		{"joins behind a run other than the previous push's", cov.otherRunJoins, 10000},
		{"pushes whose tails slot held another instant", cov.slotCollisions, 1000},
		{"joins refused: the cached tail fired", cov.tailFired, 1000},
		{"joins refused: the cached tail was cancelled", cov.tailCancelled, 100},
		{"joins refused: the cached tail's slot was released", cov.tailReleased, 100},
		{"joins refused on key order", cov.keyRefusals, 1000},
		{"cancelled run heads", cov.cancelHead, 100},
		{"cancelled run middles", cov.cancelMiddle, 100},
		{"cancelled run tails", cov.cancelTail, 100},
		{"cancelled singletons", cov.cancelSingleton, 100},
		{"stale cancels", cov.staleCancels, 100},
		{"double cancels", cov.doubleCancels, 100},
		{"compactions", cov.compactions, 300},
		{"dead heads promoted by compaction", cov.promoted, 100},
	} {
		if c.n < c.min {
			t.Errorf("programs covered %d %s, want >= %d", c.n, c.name, c.min)
		}
	}
}

// FuzzQueueDifferential runs arbitrary bytes through the same interpreter.
// Programs over 512 bytes (a few hundred ops, enough for a compaction) are
// skipped: the structure check after every step makes a program's cost
// quadratic in its length, and the fuzzer would spend its time minimizing
// long inputs. Long programs are TestQueueDifferential's job.
func FuzzQueueDifferential(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := newRNGSource(seed, 150)
		runProgram(f, src, &diffCoverage{})
		f.Add(src.rec)
	}
	f.Add([]byte{opBurst, 15, opFireAt, opPush, opCancel, 0, 0, opCancelAgn})
	// Two interleaved instants: join the older run, refuse a lane-like key
	// there, push at a colliding instant, then pop and cancel across them.
	f.Add([]byte{6 << 5, 1, 6 << 5, 2, 1 << 5, 0, 0, 1<<5 | 1<<4, 0, 1, 2,
		3 << 5, 0, 0, 7, opPop, 1 << 5, 0, 1, opCancel, 0, 0, 1 << 5, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			t.Skip()
		}
		runProgram(t, &byteSource{b: prog}, &diffCoverage{})
	})
}
