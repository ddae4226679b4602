// Package clock models the timer surface for the maporder analyzer: a
// Handle's Arm and an Armer's ArmAfter both schedule.
package clock

// Armer schedules without allocating a timer.
type Armer interface {
	ArmAfter(d int64, fn func()) (ref, gen uint32)
}

// Handle is a re-armable timer.
type Handle struct{ ref, gen uint32 }

// Arm schedules fn on a.
func (h *Handle) Arm(a Armer, d int64, fn func()) { h.ref, h.gen = a.ArmAfter(d, fn) }

// Armed is a read-only accessor, not a post.
func (h *Handle) Armed() bool { return h.ref != 0 }
