// Package sim models the event-loop surface: the package tail is "sim",
// so its At/Post/PostN/PostFrom methods count as event posting for the
// maporder analyzer.
package sim

import "maporderfix/clock"

// Engine is a stub event loop.
type Engine struct{ queue []clock.Firer }

// At schedules fn at time t.
func (e *Engine) At(t int64, fn func()) { _ = t; e.queue = append(e.queue, clock.Func(fn)) }

// Post enqueues fn immediately.
func (e *Engine) Post(fn func()) { e.queue = append(e.queue, clock.Func(fn)) }

// PostN enqueues f to fire n times.
func (e *Engine) PostN(from, to int32, d int64, n int, f clock.Firer) {
	for range n {
		e.queue = append(e.queue, f)
	}
}

// PostFrom enqueues fn once.
func (e *Engine) PostFrom(from, to int32, d int64, fn func()) {
	e.PostN(from, to, d, 1, clock.Func(fn))
}
