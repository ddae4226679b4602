// Package eventq models the event queue's push surface for the maporder
// analyzer: PushKeyed and the counted PushN both enqueue.
package eventq

import "maporderfix/clock"

// Queue is a stub queue.
type Queue struct{ fs []clock.Firer }

// PushKeyed enqueues one event.
func (q *Queue) PushKeyed(at, pushAt int64, src int32, fn func()) {
	q.fs = append(q.fs, clock.Func(fn))
}

// PushN enqueues one event of n firings.
func (q *Queue) PushN(at, pushAt int64, src int32, n uint32, f clock.Firer) (uint32, uint32) {
	q.fs = append(q.fs, f)
	return uint32(len(q.fs)), 0
}

// Len is a read-only accessor, not a push.
func (q *Queue) Len() int { return len(q.fs) }
