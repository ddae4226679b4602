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
// clock, a recovery's retry, a detector's tick) and re-arms in place with
// the owner itself, a Firer, as the callback: on a scheduler that
// implements Armer, arming allocates nothing and the queued event holds
// the owner, not a closure bound to it. Timer and Scheduler.After remain
// for drivers, which schedule one-off events, and for schedulers without
// Armer, which Handle.Arm falls back to.
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

// Firer is what a timer calls when it fires. A protocol timer's owner
// implements it itself, or through a named pointer type per timer when it
// owns several, so the event queue holds the owner and arming binds no
// closure.
type Firer interface{ Fire() }

// Func adapts a plain callback to a Firer. A func value is one pointer,
// so storing a Func in a Firer allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Canceller cancels an event an Armer scheduled, named by the reference
// and generation ArmAfter returned with it. It returns false, and cancels
// nothing, once that event has fired or been cancelled, even if the
// scheduler has since reused the reference for another event.
type Canceller interface {
	Cancel(ref, gen uint32) bool
}

// Armer is the optional allocation-free side of a Scheduler. ArmAfter
// schedules f.Fire exactly as After would schedule a callback and
// returns, instead of a Timer, the triple a Handle keeps.
type Armer interface {
	ArmAfter(d time.Duration, f Firer) (c Canceller, ref, gen uint32)
}

// Handle is a re-armable timer its owner holds by value. The zero Handle
// is disarmed. A Handle belongs to one owner and is not safe for
// concurrent use.
type Handle struct {
	// c is the Canceller ArmAfter returned, or, on a scheduler without
	// Armer, the Timer its After returned: held as is, so arming a Func
	// there allocates no more than After itself does.
	c        any
	ref, gen uint32
}

// Arm schedules f to fire d from now on s. It replaces whatever the
// handle held without cancelling it; Stop first to cancel a pending event.
// On a Scheduler without Armer it keeps s.After's Timer, passing a Func to
// After as the callback it is and binding f.Fire only for other Firers.
func (h *Handle) Arm(s Scheduler, d time.Duration, f Firer) {
	if a, ok := s.(Armer); ok {
		h.c, h.ref, h.gen = a.ArmAfter(d, f)
		return
	}
	fn, ok := f.(Func)
	if !ok {
		fn = f.Fire
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
