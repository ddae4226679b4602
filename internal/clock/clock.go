// Package clock defines the narrow time interface the protocol stack is
// written against.
//
// The protocol engine and buffer manager never read the wall clock or call
// time.AfterFunc directly; they only use a Scheduler. The simulator binds
// Scheduler to virtual time (internal/sim): a Sim implements it, and so
// does each lane of a region-sharded run. This is what lets the exact same
// protocol code run on one event loop or across sharded lanes.
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
