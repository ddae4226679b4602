// Package clock_test pins down the Scheduler/Timer/Handle contract that
// every protocol component is written against. The contract is exercised
// through the simulator binding (internal/sim), the implementation all
// deterministic experiments run on, and through the same binding with its
// clock.Armer hidden, the fallback Handle.Arm takes on any other
// scheduler. Every case runs its timers both ways a protocol owner gets
// them: After's Timer and an armed Handle. The tests only touch the
// scheduler through the clock interfaces, so they document what any
// future binding must honor.
package clock_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
)

// afterOnly hides a scheduler's Armer: only Now and After are promoted.
type afterOnly struct{ clock.Scheduler }

// arm schedules fn on s and returns its cancellation handle.
type arm func(s clock.Scheduler, d time.Duration, fn func()) clock.Timer

func viaAfter(s clock.Scheduler, d time.Duration, fn func()) clock.Timer { return s.After(d, fn) }

func viaHandle(s clock.Scheduler, d time.Duration, fn func()) clock.Timer {
	h := new(clock.Handle)
	h.Arm(s, d, clock.Func(fn))
	return h
}

// newSched returns a fresh scheduler under test, typed as the interface
// so the tests cannot reach past the contract, and the Sim that runs it.
type newSched func() (clock.Scheduler, *sim.Sim)

// bindings are the two schedulers: a Sim, and a Sim without Armer.
var bindings = []struct {
	name string
	new  newSched
}{
	{"sim", func() (clock.Scheduler, *sim.Sim) { s := sim.New(); return s, s }},
	{"no-armer", func() (clock.Scheduler, *sim.Sim) { s := sim.New(); return afterOnly{s}, s }},
}

// eachBinding runs body once per (scheduler, timer kind) pair: a Sim and a
// Sim without Armer, each through After and through a Handle.
func eachBinding(t *testing.T, body func(t *testing.T, newSched newSched, after arm)) {
	for _, b := range bindings {
		for _, tk := range []struct {
			name  string
			after arm
		}{{"after", viaAfter}, {"handle", viaHandle}} {
			t.Run(fmt.Sprintf("%s/%s", b.name, tk.name), func(t *testing.T) { body(t, b.new, tk.after) })
		}
	}
}

func TestTimersFireInTimeOrder(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		var order []int
		after(sched, 30*time.Millisecond, func() { order = append(order, 3) })
		after(sched, 10*time.Millisecond, func() { order = append(order, 1) })
		after(sched, 20*time.Millisecond, func() { order = append(order, 2) })
		s.RunUntil(-1)
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("fired in order %v, want [1 2 3]", order)
		}
	})
}

func TestNowAdvancesToTimerDeadline(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		var at time.Duration = -1
		after(sched, 7*time.Millisecond, func() { at = sched.Now() })
		s.RunUntil(-1)
		if at != 7*time.Millisecond {
			t.Fatalf("callback saw Now()=%v, want 7ms", at)
		}
		if sched.Now() != 7*time.Millisecond {
			t.Fatalf("Now()=%v after run, want 7ms", sched.Now())
		}
	})
}

// Same-tick determinism: timers scheduled for the same instant fire in
// scheduling order, every run. Protocol code relies on this (for example
// a Crash event scheduled after a Publish event at the same virtual time
// must observe the publish).
func TestSameTickFiresInSchedulingOrder(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		for run := 0; run < 5; run++ {
			sched, s := newSched()
			var order []int
			for i := 0; i < 8; i++ {
				i := i
				after(sched, 5*time.Millisecond, func() { order = append(order, i) })
			}
			s.RunUntil(-1)
			for i, got := range order {
				if got != i {
					t.Fatalf("run %d: same-tick order %v, want ascending", run, order)
				}
			}
		}
	})
}

func TestStopCancelsBeforeFiring(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		fired := false
		tm := after(sched, 10*time.Millisecond, func() { fired = true })
		if !tm.Stop() {
			t.Fatal("Stop on a pending timer returned false")
		}
		if tm.Stop() {
			t.Fatal("second Stop returned true")
		}
		s.RunUntil(-1)
		if fired {
			t.Fatal("stopped timer fired anyway")
		}
	})
}

func TestStopAfterFiringReturnsFalse(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		tm := after(sched, time.Millisecond, func() {})
		s.RunUntil(-1)
		if tm.Stop() {
			t.Fatal("Stop after firing returned true")
		}
	})
}

// A timer stopped from inside an earlier same-tick callback must not run:
// this is exactly the suppression pattern the protocol uses (a repair
// arriving cancels the pending regional multicast scheduled for the same
// instant or later).
func TestStopFromEarlierCallbackSuppresses(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		fired := false
		var victim clock.Timer
		after(sched, time.Millisecond, func() {
			if !victim.Stop() {
				t.Error("in-callback Stop returned false for a pending timer")
			}
		})
		victim = after(sched, time.Millisecond, func() { fired = true })
		s.RunUntil(-1)
		if fired {
			t.Fatal("timer fired after being stopped by a same-tick callback")
		}
	})
}

// Non-positive delays still go through the queue: the callback runs after
// the currently scheduled work, never synchronously inside After or Arm.
func TestZeroDelayIsAsynchronous(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		ran := false
		after(sched, 0, func() { ran = true })
		if ran {
			t.Fatal("zero-delay callback ran synchronously")
		}
		after(sched, -time.Second, func() {})
		s.RunUntil(-1)
		if !ran {
			t.Fatal("zero-delay callback never ran")
		}
		if sched.Now() != 0 {
			t.Fatalf("negative delay advanced the clock to %v", sched.Now())
		}
	})
}

// Timers scheduled from inside a callback run at their correct time
// relative to the firing instant.
func TestNestedSchedulingKeepsRelativeTime(t *testing.T) {
	eachBinding(t, func(t *testing.T, newSched newSched, after arm) {
		sched, s := newSched()
		var at time.Duration
		after(sched, 10*time.Millisecond, func() {
			after(sched, 5*time.Millisecond, func() { at = sched.Now() })
		})
		s.RunUntil(-1)
		if at != 15*time.Millisecond {
			t.Fatalf("nested timer fired at %v, want 15ms", at)
		}
	})
}

// A Handle is its owner's one timer: the zero value is disarmed, Stop
// clears it, and it re-arms in place after firing, as a retry loop does.
func TestHandleLifecycle(t *testing.T) {
	for _, b := range bindings {
		t.Run(b.name, func(t *testing.T) {
			sched, s := b.new()
			var h clock.Handle
			if h.Armed() || h.Stop() {
				t.Fatal("zero Handle is armed or stoppable")
			}
			fires := 0
			var retry func()
			retry = func() {
				fires++
				if fires < 3 {
					h.Arm(sched, time.Millisecond, clock.Func(retry))
				}
			}
			h.Arm(sched, time.Millisecond, clock.Func(retry))
			if !h.Armed() {
				t.Fatal("Handle not armed after Arm")
			}
			s.RunUntil(-1)
			if fires != 3 || s.Now() != 3*time.Millisecond {
				t.Fatalf("re-armed %d times to %v, want 3 to 3ms", fires, s.Now())
			}
			if !h.Armed() || h.Stop() {
				t.Fatal("a fired Handle must stay armed until stopped, and Stop it false")
			}
			if h.Armed() {
				t.Fatal("Stop left the Handle armed")
			}
		})
	}
}

// recordingSched is a Scheduler without Armer whose After keeps the
// callback it is given and returns itself as the Timer, so After
// allocates nothing of its own.
type recordingSched struct{ fn func() }

func (*recordingSched) Now() time.Duration { return 0 }

func (r *recordingSched) After(_ time.Duration, fn func()) clock.Timer {
	r.fn = fn
	return r
}

func (*recordingSched) Stop() bool { return false }

// counter is a Firer that is not a Func.
type counter int

func (c *counter) Fire() { *c++ }

// TestArmFallbackPassesFuncThrough pins what Handle.Arm costs on a
// scheduler without Armer: a Func reaches After as the callback it is,
// with nothing allocated beyond what After allocates, and any other Firer
// costs the one closure that binds its Fire.
func TestArmFallbackPassesFuncThrough(t *testing.T) {
	sched := new(recordingSched)
	var h clock.Handle
	fired := 0
	fn := clock.Func(func() { fired++ })
	if allocs := testing.AllocsPerRun(100, func() { h.Arm(sched, time.Millisecond, fn) }); allocs != 0 {
		t.Errorf("arming a Func on a scheduler without Armer allocates %.1f objects, want 0", allocs)
	}
	sched.fn()
	if fired != 1 {
		t.Fatalf("After was handed a callback that fired the Func %d times, want 1", fired)
	}
	var c counter
	if allocs := testing.AllocsPerRun(100, func() { h.Arm(sched, time.Millisecond, &c) }); allocs != 1 {
		t.Errorf("arming a Firer on a scheduler without Armer allocates %.1f objects, want 1 (its bound Fire)", allocs)
	}
	sched.fn()
	if c != 1 {
		t.Fatalf("After was handed a callback that fired the Firer %d times, want 1", c)
	}
}
