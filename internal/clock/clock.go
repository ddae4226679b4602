// Package clock defines the narrow time interface the protocol stack is
// written against.
//
// The protocol engine and buffer manager never read the wall clock or call
// time.AfterFunc directly; they only use a Scheduler. The simulator binds
// Scheduler to virtual time (internal/sim): a Sim implements it, and so
// does each lane of a region-sharded run. This is what lets the exact same
// protocol code run on one event loop or across sharded lanes.
//
// A protocol timer is a Handle its owner embeds (a buffer entry's idle
// clock, a recovery's retry, a detector's tick) and re-arms in place: on a
// scheduler that implements Armer, arming allocates nothing. Timer and
// Scheduler.After remain for drivers, which schedule one-off events, and
// for schedulers without Armer, which Handle.Arm falls back to.
package clock

import "time"

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer. It returns false if the timer already fired
	// or was stopped. Implementations guarantee that after Stop returns
	// true the callback will never run.
	Stop() bool
}

// Scheduler provides the current time and one-shot timers. Implementations
// serialize all callbacks with respect to each other and with the code that
// schedules them, so protocol state needs no locking.
type Scheduler interface {
	// Now returns the time elapsed since the scheduler's epoch.
	Now() time.Duration
	// After schedules fn to run once, d from now (immediately if d <= 0).
	After(d time.Duration, fn func()) Timer
}

// Canceller cancels an event an Armer scheduled, named by the reference
// and generation ArmAfter returned with it. It returns false, and cancels
// nothing, once that event has fired or been cancelled, even if the
// scheduler has since reused the reference for another event.
type Canceller interface {
	Cancel(ref, gen uint32) bool
}

// Armer is the optional allocation-free side of a Scheduler. ArmAfter
// schedules fn exactly as After would and returns, instead of a Timer, the
// triple a Handle keeps.
type Armer interface {
	ArmAfter(d time.Duration, fn func()) (c Canceller, ref, gen uint32)
}

// Handle is a re-armable timer its owner holds by value. The zero Handle
// is disarmed. A Handle belongs to one owner and is not safe for
// concurrent use.
type Handle struct {
	// c is the Canceller ArmAfter returned, or, on a scheduler without
	// Armer, the Timer its After returned: held as is, so the fallback
	// allocates no more than After itself does.
	c        any
	ref, gen uint32
}

// Arm schedules fn d from now on s. It replaces whatever the handle held
// without cancelling it; Stop first to cancel a pending event. On a
// Scheduler without Armer it keeps s.After's Timer.
func (h *Handle) Arm(s Scheduler, d time.Duration, fn func()) {
	if a, ok := s.(Armer); ok {
		h.c, h.ref, h.gen = a.ArmAfter(d, fn)
		return
	}
	h.c, h.ref, h.gen = s.After(d, fn), 0, 0
}

// Stop cancels the armed event and clears the handle. It returns false if
// the handle was disarmed or its event already fired.
func (h *Handle) Stop() bool {
	c, ref, gen := h.c, h.ref, h.gen
	if c == nil {
		return false
	}
	*h = Handle{}
	switch c := c.(type) {
	case Canceller:
		return c.Cancel(ref, gen)
	case Timer:
		return c.Stop()
	}
	return false
}

// Armed reports whether the handle was armed and not stopped since; an
// event that has fired leaves its handle armed until it is re-armed or
// stopped.
func (h *Handle) Armed() bool { return h.c != nil }
