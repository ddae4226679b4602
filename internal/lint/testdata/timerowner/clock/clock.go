// Package clock models the timer surface for the timerowner analyzer: a
// Handle arms a Firer, and Func adapts a plain callback to one.
package clock

// Firer is what a timer calls when it fires.
type Firer interface{ Fire() }

// Func adapts a func() to a Firer.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Handle is a re-armable timer.
type Handle struct{ f Firer }

// Arm schedules f.
func (h *Handle) Arm(_ any, _ int64, f Firer) { h.f = f }
