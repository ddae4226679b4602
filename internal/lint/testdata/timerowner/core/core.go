// Package core sits in the protocol set: its timers must fire their owner.
package core

import "timerownerfix/clock"

// entry owns one timer and is its Firer: the idiom the analyzer asks for.
type entry struct {
	timer clock.Handle
	n     int
}

func (e *entry) Fire() { e.n++ }

func (e *entry) arm() { e.timer.Arm(nil, 1, e) }

// episode owns two timers and fires itself through a named pointer type
// per timer.
type episode struct {
	local, remote clock.Handle
	tries         int
}

type localRetry episode

func (r *localRetry) Fire() { r.tries++ }

func (ep *episode) arm() { ep.local.Arm(nil, 1, (*localRetry)(ep)) }

// bound is the idiom the analyzer flags: callbacks bound once and kept in
// fields, and closures armed in place of their owner.
type bound struct {
	timer  clock.Handle
	fire   func()
	firer  clock.Firer
	notify func(int) // not a timer callback: takes an argument
}

func (b *bound) expire() {}

func (b *bound) seen(int) {}

func (b *bound) bind() {
	b.fire = b.expire                                    // want "bound callback stored in field fire"
	b.fire = func() {}                                   // want "bound callback stored in field fire"
	b.firer = clock.Func(b.expire)                       // want "closure converted to clock.Func"
	b.notify = b.seen                                    // a func(int) is not a timer callback
	b.timer.Arm(nil, 1, clock.Func(b.expire))            // want "closure converted to clock.Func"
	b.timer.Arm(nil, 1, clock.Func(func() { b.fire() })) // want "closure converted to clock.Func"
	tick := b.expire
	b.timer.Arm(nil, 1, clock.Func(tick)) // want "closure converted to clock.Func"
	b.timer.Arm(nil, 1, ownFunc(tick))    // want "closure converted to core.ownFunc"
}

// ownFunc is a Func of the package's own: converting to it is the same
// closure.
type ownFunc func()

func (f ownFunc) Fire() { f() }

func newBound() *bound {
	b := &bound{}
	return &bound{fire: b.expire, notify: b.seen} // want "bound callback stored in field fire"
}

func allowed(b *bound) {
	//lint:allow timerowner -- a one-off driver callback, never re-armed
	b.timer.Arm(nil, 1, clock.Func(b.expire))
}
