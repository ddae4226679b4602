package eventq

import "time"

// Push schedules fn at virtual time at under the serial key (at, seq),
// the order the tests compare against.
func (q *Queue) Push(at time.Duration, fn func()) *Event {
	return q.PushKeyed(at, 0, 0, fn)
}
