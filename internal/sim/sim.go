// Package sim implements a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and an ordered event queue (internal/eventq).
// All protocol work — packet deliveries, retransmission timers, idle-buffer
// timers — is expressed as events. Running the simulation pops events in
// (time, insertion) order and advances the clock to each event's timestamp,
// so an arbitrarily large multicast group simulates on one goroutine with
// perfectly reproducible interleavings.
//
// Sim implements clock.Scheduler, which is the only interface the protocol
// stack sees, and clock.Armer, through which the protocol's owner-embedded
// timers (clock.Handle) arm without allocating. An event is a clock.Firer;
// the func() surface (After, At, Post) wraps its callback in a clock.Func.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/eventq"
)

// Engine is the driver-facing surface shared by the serial simulator (Sim)
// and the region-sharded parallel simulator (Sharded): scheduling from the
// driver's context plus bounded execution. Experiment runners are written
// against Engine so one scenario kernel can drive either implementation.
type Engine interface {
	clock.Scheduler
	// Processed returns the number of events executed so far.
	Processed() uint64
	// At schedules fn at the absolute virtual time at, clamped to now.
	At(at time.Duration, fn func()) clock.Timer
	// RunUntil executes events with timestamps <= deadline, advances the
	// clock to the deadline, and returns the number executed by this call.
	RunUntil(deadline time.Duration) uint64
}

// Sim is a discrete-event simulator: one clock, one queue, one loop. Create
// one with New. It is the only event loop in the package — a Sharded engine
// is a coordinator over several Sim values (its lanes), so a serial run is
// exactly a one-lane run. Sim is not safe for concurrent use: everything
// runs on the caller's goroutine.
type Sim struct {
	now       time.Duration
	queue     eventq.Queue
	processed uint64
	running   bool

	// src is the context index of the ordering key (at, pushAt, src, seq)
	// this loop's own pushes carry: zero standalone, the lane index on a
	// Sharded's lanes. With one pushing context the key orders exactly as
	// (at, seq) does, because pushAt (the clock) never decreases in seq.
	src int32
	// stopMu is set only on a Sharded's global lane, the one queue whose
	// timers several lane goroutines may Stop within a window.
	stopMu *sync.Mutex
}

// New returns an empty simulator at virtual time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Cancel cancels the event ArmAfter returned as (ref, gen); see
// clock.Canceller. Events are pooled, so a Cancel after the event fired
// (and its slot was reused for a later event) carries a stale generation,
// which the queue refuses. On a Sharded's lanes Cancel is only safe from
// the owning lane's context (or a barrier) — the ownership rule of every
// lane operation; protocol members only cancel their own timers, so it
// holds by construction. The global lane, whose timers any lane may
// cancel mid-window, serializes them under stopMu.
func (s *Sim) Cancel(ref, gen uint32) bool {
	if s.stopMu != nil {
		s.stopMu.Lock()
		defer s.stopMu.Unlock()
	}
	return s.queue.CancelRef(ref, gen)
}

var _ clock.Scheduler = (*Sim)(nil)
var _ clock.Armer = (*Sim)(nil)
var _ Engine = (*Sim)(nil)

// push is the one way an event enters the queue: n firings of f, d after
// the loop's clock (a non-positive d means "now"; the event still goes
// through the queue so it runs after the currently executing event
// completes), keyed as pushed by context src.
func (s *Sim) push(d time.Duration, src int32, n int, f clock.Firer) (ref, gen uint32) {
	if f == nil {
		panic("sim: scheduling a nil callback")
	}
	if d < 0 {
		d = 0
	}
	return s.queue.PushN(s.now+d, s.now, src, fires(n), f)
}

// firer wraps a driver's callback as the Firer an event holds, refusing a
// nil one where it is scheduled rather than where it would fire.
func firer(fn func()) clock.Firer {
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	return clock.Func(fn)
}

// fires converts a firing count to the queue's, refusing one it cannot
// hold.
func fires(n int) uint32 {
	if n < 1 || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("sim: posting an event of %d firings", n))
	}
	return uint32(n)
}

// arm is push returning what a clock.Handle keeps.
func (s *Sim) arm(d time.Duration, src int32, f clock.Firer) (clock.Canceller, uint32, uint32) {
	ref, gen := s.push(d, src, 1, f)
	return s, ref, gen
}

// After schedules fn to run d after the current virtual time, clamped to
// now.
func (s *Sim) After(d time.Duration, fn func()) clock.Timer { return newTimer(s, d, fn) }

// newTimer is After for any of the engine's schedulers: its Timer is a
// clock.Handle of its own, armed through the scheduler's ArmAfter.
func newTimer(s clock.Scheduler, d time.Duration, fn func()) clock.Timer {
	h := new(clock.Handle)
	h.Arm(s, d, firer(fn))
	return h
}

// ArmAfter schedules f like After and returns the triple a clock.Handle
// keeps in place of a Timer, so arming allocates nothing.
func (s *Sim) ArmAfter(d time.Duration, f clock.Firer) (clock.Canceller, uint32, uint32) {
	return s.arm(d, s.src, f)
}

// Post schedules fn like After but returns no cancellation handle, saving
// the timer allocation: PostN's one-firing case.
func (s *Sim) Post(d time.Duration, fn func()) { s.PostN(0, 0, d, 1, firer(fn)) }

// PostN schedules f to fire n (>= 1) times in a row, d after the current
// virtual time, as one queued event with no cancellation handle. It exists
// for fire-and-forget events — the simulated network's packet deliveries
// are never cancelled, and they dominate event volume at scale: one
// transmission's deliveries that arrive together are one event. A Sim is
// the router of a network on one loop (see netsim.ShardRouter): every node
// lives on it, so from and to only name the endpoints.
func (s *Sim) PostN(_, _ int32, d time.Duration, n int, f clock.Firer) { s.push(d, s.src, n, f) }

// At schedules fn at the absolute virtual time at, clamped to now.
func (s *Sim) At(at time.Duration, fn func()) clock.Timer {
	return s.After(at-s.now, fn)
}

// Step executes the single earliest pending event, one firing of a counted
// event. It returns false if no events are pending. Cancelled events are
// skipped: never run, counted or allowed to move the clock.
func (s *Sim) Step() bool {
	at, f, ok := s.queue.PopFire()
	if !ok {
		return false
	}
	if at > s.now {
		s.now = at
	}
	s.processed++
	f.Fire()
	return true
}

// runDue executes, in key order, every event with a timestamp <= limit
// (every event at all under a negative limit), including the ones those
// events schedule. It is the loop under RunUntil and under every window and
// barrier of a Sharded engine. Cancelled events never count as due.
func (s *Sim) runDue(limit time.Duration) {
	for {
		at, ok := s.queue.NextAt()
		if !ok || (limit >= 0 && at > limit) {
			return
		}
		s.Step()
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. A negative deadline means "run to exhaustion". It
// returns the number of events executed by this call.
func (s *Sim) RunUntil(deadline time.Duration) uint64 {
	if s.running {
		panic("sim: reentrant Run from inside an event callback")
	}
	s.running = true
	defer func() { s.running = false }()

	start := s.processed
	s.runDue(deadline)
	if deadline >= 0 && s.now < deadline {
		s.now = deadline
	}
	return s.processed - start
}

// MustQuiesce runs to exhaustion but panics if more than limit events
// execute, which guards tests and experiments against runaway protocols
// (for example a search loop that never terminates).
func (s *Sim) MustQuiesce(limit uint64) uint64 {
	if s.running {
		panic("sim: reentrant MustQuiesce")
	}
	s.running = true
	defer func() { s.running = false }()

	start := s.processed
	for s.queue.Len() > 0 {
		if s.processed-start >= limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v with %d pending", limit, s.now, s.queue.Len()))
		}
		s.Step()
	}
	return s.processed - start
}
