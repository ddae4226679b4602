// Package clock models the timer surface for the maporder analyzer: a
// Handle's Arm and an Armer's ArmAfter both schedule a Firer.
package clock

// Firer is what a timer calls when it fires.
type Firer interface{ Fire() }

// Func adapts a func() to a Firer.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Armer schedules without allocating a timer.
type Armer interface {
	ArmAfter(d int64, f Firer) (ref, gen uint32)
}

// Handle is a re-armable timer.
type Handle struct{ ref, gen uint32 }

// Arm schedules f on a.
func (h *Handle) Arm(a Armer, d int64, f Firer) { h.ref, h.gen = a.ArmAfter(d, f) }

// Armed is a read-only accessor, not a post.
func (h *Handle) Armed() bool { return h.ref != 0 }
