// Sharded is the region-sharded parallel simulation engine: one trial runs
// several event loops (shards), each owning the members of one or more
// regions, synchronized by conservative-lookahead windows.
//
// The synchronization protocol is classic conservative PDES specialized to
// this simulator's structure:
//
//   - Every cross-shard interaction is a packet delivery with latency of at
//     least the lookahead bound W (the minimum cross-region one-way
//     latency). A shard executing events in the window [G, G+W) can
//     therefore only schedule cross-shard work at or after G+W — never
//     inside another shard's current window.
//   - Shards execute a window concurrently, queueing cross-shard pushes in
//     per-shard outboxes. At the barrier the coordinator drains outboxes in
//     fixed shard order into the target queues, so the merge order is a
//     pure function of the event timeline, not goroutine scheduling.
//   - Driver-level events (fault injections, publishes, anything scheduled
//     through the engine's own Scheduler or before the first RunUntil) live
//     on a separate global lane executed single-threaded at barriers, in
//     exactly the (time, insertion) order a serial run gives them. A fault
//     cut landing on a barrier boundary thus executes between windows,
//     never "batch-ahead" of the shard loops it affects.
//
// Determinism: each queue orders events by the extended key
// (at, pushAt, src, seq) — see eventq.PushKeyed. Within one pushing context
// (a shard's loop, or the coordinator) pushAt is nondecreasing and seq is
// the push order, so per-context insertion order is preserved; across
// contexts the key orders by push time first (as the serial engine's global
// sequence does) and falls back to the fixed context index only for pushes
// from different contexts at identical virtual times. That fallback is the
// one place the merge can deviate from the serial engine's global sequence
// (which breaks such ties by push order instead) — the order is still a
// pure function of the event timeline, just a different deterministic
// convention, and any downstream push inherits it. FuzzShardMerge pins
// exactly this contract; the runner differential suite demonstrates the
// convention never changes protocol-level report bytes.
package sim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Sharded runs one simulation across several event loops. It owns Sim
// values — one lane per shard plus the global lane — and adds only what
// makes them one engine: windows, barriers and outboxes. Every event is
// pushed, popped, fired and cancelled by Sim's code. Sharded implements
// Engine (drive it like a Sim) and clock.Scheduler (driver-level scheduling
// lands on the global lane); per-shard schedulers for protocol members come
// from Clock. Create one with NewSharded.
//
// Concurrency contract: all Engine/Scheduler methods are driver-side and
// must be called from the driving goroutine, outside RunUntil, or from a
// global-lane event. During a window, each shard's goroutine may only touch
// its own lane (through its Clock or PostFrom with a same/cross-shard
// target); cross-shard effects are deferred to the barrier.
type Sharded struct {
	lanes     []*lane
	nodeShard []int32
	lookahead time.Duration

	// global is the driver/coordinator lane: plain (at, seq) order, exactly
	// a serial engine's pre-run queue, and its clock is the barrier clock
	// (the driver-visible virtual time). Only the coordinator pushes to and
	// runs it; shard contexts may Stop its timers mid-window, which its
	// stopMu serializes.
	global Sim

	setup   bool // until the first RunUntil: every push goes to the global lane
	barrier bool // coordinator is executing between windows
	running bool

	active []*lane // scratch for runWindow
}

// lane is one shard: its event loop (a Sim whose src is the shard index),
// the outbox of cross-shard pushes deferred to the next barrier, and — as
// the clock.Scheduler the shard's members run against — the engine whose
// phase routes their timers.
type lane struct {
	loop Sim
	out  []outEvent
	e    *Sharded
}

// outEvent is a cross-shard push captured during a window, keyed at the
// barrier with the capturing lane's src.
type outEvent struct {
	dst        int32
	at, pushAt time.Duration
	fn         func()
}

// coordinatorSrc orders barrier-context pushes before any shard's pushes at
// an identical (at, pushAt) — the serial engine runs driver-scheduled
// events first at equal timestamps because their sequence numbers predate
// all runtime pushes.
const coordinatorSrc int32 = -1

// NewSharded returns a sharded engine with shards loops. nodeShard maps
// every node id to its owning shard (see topology.NodeShards); lookahead is
// the conservative window bound and must not exceed the minimum cross-shard
// packet latency the caller's latency model can produce.
func NewSharded(shards int, nodeShard []int32, lookahead time.Duration) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: NewSharded with %d shards", shards)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: NewSharded with non-positive lookahead %v", lookahead)
	}
	for n, s := range nodeShard {
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("sim: node %d mapped to shard %d of %d", n, s, shards)
		}
	}
	e := &Sharded{
		lanes:     make([]*lane, shards),
		nodeShard: nodeShard,
		lookahead: lookahead,
		global:    Sim{stopMu: new(sync.Mutex)},
		setup:     true,
	}
	for i := range e.lanes {
		e.lanes[i] = &lane{loop: Sim{src: int32(i)}, e: e}
	}
	return e, nil
}

// Clock returns the scheduler shard-owned protocol code must use: Now is
// the shard's local window clock and timers land on the shard's own queue.
func (e *Sharded) Clock(shard int32) clock.Scheduler { return e.lanes[shard] }

// Now returns the engine's barrier clock (the driver-visible virtual time).
func (e *Sharded) Now() time.Duration { return e.global.now }

// Processed returns the number of events executed across all lanes plus the
// global lane.
func (e *Sharded) Processed() uint64 {
	total := e.global.processed
	for _, ln := range e.lanes {
		total += ln.loop.processed
	}
	return total
}

// Pending returns the number of scheduled events not yet executed.
func (e *Sharded) Pending() int {
	n := e.global.Pending()
	for _, ln := range e.lanes {
		n += ln.loop.Pending()
	}
	return n
}

// After schedules fn on the global lane d after the barrier clock.
func (e *Sharded) After(d time.Duration, fn func()) clock.Timer { return e.global.After(d, fn) }

// ArmAfter is After for a clock.Handle.
func (e *Sharded) ArmAfter(d time.Duration, fn func()) (clock.Canceller, uint32, uint32) {
	return e.global.ArmAfter(d, fn)
}

// At schedules fn on the global lane at the absolute time at, clamped to
// the barrier clock.
func (e *Sharded) At(at time.Duration, fn func()) clock.Timer { return e.global.At(at, fn) }

// Post schedules fn like After without a cancellation handle.
func (e *Sharded) Post(d time.Duration, fn func()) { e.global.Post(d, fn) }

// PostFrom schedules fn to run d after the sending context's clock, on the
// shard owning node to. from identifies the sending node; the sending
// context is from's shard during a window, or the coordinator during setup
// and barriers. This is the network's delivery primitive (netsim routes
// through it when sharding is enabled). Cross-shard posts with d below the
// lookahead bound panic: they would land inside another shard's current
// window, which the engine cannot order deterministically.
func (e *Sharded) PostFrom(from, to int32, d time.Duration, fn func()) {
	if e.setup {
		e.global.Post(d, fn)
		return
	}
	dst := e.nodeShard[to]
	if e.barrier {
		// Lane clocks equal the barrier clock here (see barrierAt).
		e.lanes[dst].loop.push(d, coordinatorSrc, fn)
		return
	}
	src := e.nodeShard[from]
	ln := e.lanes[src]
	if src == dst {
		ln.loop.Post(d, fn)
		return
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	if d < e.lookahead {
		panic(fmt.Sprintf("sim: cross-shard post from node %d to node %d with delay %v below the %v lookahead bound", from, to, d, e.lookahead))
	}
	ln.out = append(ln.out, outEvent{dst: dst, at: ln.loop.now + d, pushAt: ln.loop.now, fn: fn})
}

// RunUntil executes events with timestamps <= deadline in lookahead-bounded
// windows, advances the barrier clock to the deadline, and returns the
// number of events executed by this call. A negative deadline runs to
// exhaustion.
func (e *Sharded) RunUntil(deadline time.Duration) uint64 {
	if e.running {
		panic("sim: reentrant Run from inside an event callback")
	}
	e.running = true
	defer func() { e.running = false }()
	e.setup = false

	start := e.Processed()
	if deadline < 0 {
		for {
			at, ok := e.nextEventAt()
			if !ok {
				break
			}
			e.runTo(at)
		}
	} else {
		e.runTo(deadline)
	}
	return e.Processed() - start
}

// Run executes events until every queue is empty and returns the number
// executed.
func (e *Sharded) Run() uint64 { return e.RunUntil(-1) }

// runTo advances the engine to the absolute time deadline (>= 0): a barrier,
// then windows of at most the lookahead bound, each closed by a barrier at
// its upper edge.
func (e *Sharded) runTo(deadline time.Duration) {
	e.barrierAt(e.global.now)
	for e.global.now < deadline {
		h := e.global.now + e.lookahead
		if at, ok := e.global.queue.NextAt(); ok && at < h {
			h = at
		}
		if deadline < h {
			h = deadline
		}
		// Durations are integer nanoseconds: the half-open window [now, h)
		// is the events due by h-1.
		e.runWindow(h - 1)
		e.barrierAt(h)
	}
	// Final pass: events at exactly the deadline instant. Globals at the
	// deadline already fired at the last barrier (driver-scheduled events
	// precede runtime events at equal timestamps, as in the serial engine);
	// now the shard loops run theirs inclusively.
	e.runWindow(deadline)
}

// barrierAt moves the barrier clock and every lane clock to h and executes
// the global-lane events due there, in (time, insertion) order, on the
// coordinator.
func (e *Sharded) barrierAt(h time.Duration) {
	for _, ln := range e.lanes {
		ln.loop.now = h
	}
	e.global.now = h
	e.barrier = true
	e.global.runDue(h)
	e.barrier = false
}

// nextEventAt returns the earliest pending event time across all queues.
func (e *Sharded) nextEventAt() (at time.Duration, ok bool) {
	at, ok = e.global.queue.NextAt()
	for _, ln := range e.lanes {
		if t, live := ln.loop.queue.NextAt(); live && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// runWindow executes every lane's events due by limit concurrently, one
// goroutine per lane with due events, then merges the cross-shard pushes
// they made.
func (e *Sharded) runWindow(limit time.Duration) {
	e.active = e.active[:0]
	for _, ln := range e.lanes {
		if at, ok := ln.loop.queue.NextAt(); ok && at <= limit {
			e.active = append(e.active, ln)
		}
	}
	switch len(e.active) {
	case 0: // an empty window
	case 1:
		e.active[0].loop.runDue(limit)
	default:
		var wg sync.WaitGroup
		wg.Add(len(e.active))
		for _, ln := range e.active {
			go func(ln *lane) {
				defer wg.Done()
				ln.loop.runDue(limit)
			}(ln)
		}
		wg.Wait()
	}
	e.drainOutboxes()
}

// drainOutboxes merges the window's cross-shard pushes into their target
// queues in fixed shard order, keeping the merge deterministic.
func (e *Sharded) drainOutboxes() {
	for _, ln := range e.lanes {
		for i := range ln.out {
			o := &ln.out[i]
			e.lanes[o.dst].loop.queue.PushKeyed(o.at, o.pushAt, ln.loop.src, o.fn)
			o.fn = nil
		}
		ln.out = ln.out[:0]
	}
}

// Now returns the shard's local clock (the barrier clock between windows).
func (ln *lane) Now() time.Duration { return ln.loop.now }

// After schedules fn on the shard's loop, routed as ArmAfter routes.
func (ln *lane) After(d time.Duration, fn func()) clock.Timer { return newTimer(ln, d, fn) }

// ArmAfter schedules fn on the shard's loop for a clock.Handle. During
// setup it routes to the global lane (matching the serial engine's pre-run
// insertion order); from a barrier it is keyed as a coordinator push.
func (ln *lane) ArmAfter(d time.Duration, fn func()) (clock.Canceller, uint32, uint32) {
	switch e := ln.e; {
	case e.setup:
		return e.global.ArmAfter(d, fn)
	case e.barrier:
		return ln.loop.arm(d, coordinatorSrc, fn)
	default:
		return ln.loop.ArmAfter(d, fn)
	}
}

var _ clock.Scheduler = (*lane)(nil)
var _ clock.Armer = (*lane)(nil)
var _ clock.Armer = (*Sharded)(nil)
var _ Engine = (*Sharded)(nil)
