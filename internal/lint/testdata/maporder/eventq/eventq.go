// Package eventq models the event queue's push surface for the maporder
// analyzer: PushKeyed and the counted PushN both enqueue.
package eventq

// Queue is a stub queue.
type Queue struct{ fns []func() }

// PushKeyed enqueues one event.
func (q *Queue) PushKeyed(at, pushAt int64, src int32, fn func()) { q.fns = append(q.fns, fn) }

// PushN enqueues one event of n firings.
func (q *Queue) PushN(at, pushAt int64, src int32, n uint32, fn func()) (uint32, uint32) {
	q.fns = append(q.fns, fn)
	return uint32(len(q.fns)), 0
}

// Len is a read-only accessor, not a push.
func (q *Queue) Len() int { return len(q.fns) }
