package sim

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
)

// A clock.Handle is the timer every protocol owner embeds: a buffer entry,
// a recovery or search episode, a detector. These tests pin what the
// engine promises it — no allocation per arm, and generation-checked
// cancellation however the event's arena slot is reused — on a standalone
// Sim and on a Sharded engine's lanes.

// TestHandleSize keeps the handle at four words or less: an owner pays
// for it whether or not its timer is armed, and a 48-byte handle slowed
// scale100k, whose million buffer entries each embed one.
func TestHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(clock.Handle{}); n > 32 {
		t.Fatalf("clock.Handle is %d bytes, want at most 32", n)
	}
}

func TestHandleArmAllocs(t *testing.T) {
	fn := clock.Func(func() {})
	check := func(t *testing.T, sched clock.Scheduler, run func()) {
		t.Helper()
		var h clock.Handle
		armStop := func() {
			h.Arm(sched, time.Millisecond, fn)
			h.Stop()
		}
		armFire := func() {
			h.Arm(sched, time.Millisecond, fn)
			run()
		}
		for i := 0; i < 64; i++ { // warm the arena and heap
			armStop()
			armFire()
		}
		if avg := testing.AllocsPerRun(200, armStop); avg != 0 {
			t.Errorf("Handle.Arm + Stop allocates %.2f objects/op, want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, armFire); avg != 0 {
			t.Errorf("Handle.Arm + fire allocates %.2f objects/op, want 0", avg)
		}
	}
	t.Run("sim", func(t *testing.T) {
		s := New()
		check(t, s, func() { s.RunUntil(-1) })
	})
	t.Run("lane", func(t *testing.T) {
		e := newTwoLaneEngine(t)
		before := e.lanes[0].loop.processed
		check(t, e.Clock(0), func() { e.RunUntil(-1) })
		if e.lanes[0].loop.processed == before {
			t.Fatal("lane handles did not run on the owning lane")
		}
	})
}

// TestHandleStaleStop: once a handle's event fired and its arena slot went
// to a later event, Stop reports false and leaves that event alone; the
// handle then re-arms like a fresh one.
func TestHandleStaleStop(t *testing.T) {
	s := New()
	var h clock.Handle
	if h.Stop() {
		t.Fatal("Stop on a zero Handle returned true")
	}
	fired := 0
	h.Arm(s, time.Millisecond, clock.Func(func() { fired++ }))
	s.RunUntil(-1)
	other := false
	if ref, _ := s.queue.PushN(s.now+time.Millisecond, s.now, s.src, 1, clock.Func(func() { other = true })); ref != 1 {
		t.Fatalf("setup: the later event took slot %d, want the fired event's slot 1", ref)
	}
	if h.Stop() {
		t.Fatal("stale Stop returned true")
	}
	s.RunUntil(-1)
	if !other {
		t.Fatal("stale Stop cancelled the event that reused its slot")
	}
	h.Arm(s, time.Millisecond, clock.Func(func() { fired++ }))
	s.RunUntil(-1)
	if fired != 2 {
		t.Fatalf("fired %d times, want 2: re-Arm over a fired handle", fired)
	}
}

// TestLaneHandleDuringSetupStopsMidWindow: a handle armed on a lane before
// the first RunUntil lands on the global lane, as After's timers do, and a
// lane event may stop it mid-window (under the global lane's stopMu).
func TestLaneHandleDuringSetupStopsMidWindow(t *testing.T) {
	e, err := NewSharded(2, []int32{0, 1}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fired, stopped := false, false
	var h clock.Handle
	h.Arm(e.Clock(0), time.Hour, clock.Func(func() { fired = true }))
	if e.global.Pending() != 1 {
		t.Fatal("a setup-time lane handle did not land on the global lane")
	}
	e.RunUntil(0)
	e.PostFrom(0, 0, 5*time.Millisecond, func() { stopped = h.Stop() })
	e.PostFrom(1, 1, 5*time.Millisecond, func() {})
	e.RunUntil(-1)
	if !stopped || fired || e.Pending() != 0 {
		t.Fatalf("lane Stop of a setup-time handle: stopped=%v fired=%v pending=%d", stopped, fired, e.Pending())
	}
}

// BenchmarkArmStop is a retry timer armed and cancelled, the pair a
// recovery episode makes when its message arrives.
func BenchmarkArmStop(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.Post(time.Duration(i)*time.Microsecond, fn)
	}
	var h clock.Handle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Arm(s, time.Millisecond, clock.Func(fn))
		h.Stop()
	}
}
