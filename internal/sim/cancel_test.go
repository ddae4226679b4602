package sim

import (
	"testing"
	"time"
)

// A cancelled event may stay in the queue as a tombstone until it surfaces
// or a compaction frees it. These tests pin what the engine promises
// regardless: a stopped timer leaves Pending at once, never runs, never
// moves the clock and never counts against MustQuiesce's limit.

func TestStopDropsPendingAtOnce(t *testing.T) {
	s := New()
	tm := s.After(time.Hour, func() {})
	s.After(time.Millisecond, func() {})
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer returned false")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Sim.Pending after Stop = %d, want 1", got)
	}

	e := newTwoLaneEngine(t)
	gt := e.After(time.Hour, func() {})
	e.PostFrom(0, 0, time.Millisecond, func() {})
	before := e.Pending()
	if !gt.Stop() {
		t.Fatal("Stop of a pending global-lane timer returned false")
	}
	if got := e.Pending(); got != before-1 {
		t.Fatalf("Sharded.Pending after Stop = %d, want %d", got, before-1)
	}
}

func TestCancelledTimerNeverMovesClock(t *testing.T) {
	s := New()
	fired := false
	s.After(10*time.Millisecond, func() {})
	tm := s.After(time.Hour, func() { fired = true })
	tm.Stop()
	s.RunUntil(-1)
	if fired || s.Now() != 10*time.Millisecond {
		t.Fatalf("Sim after Run: fired=%v, Now=%v, want the last live event's 10ms", fired, s.Now())
	}

	// A global-lane timer stopped from a lane in the middle of a window.
	e := newTwoLaneEngine(t)
	gt := e.After(time.Hour, func() { fired = true })
	stopped := false
	e.PostFrom(0, 0, 5*time.Millisecond, func() { stopped = gt.Stop() })
	e.PostFrom(1, 1, 5*time.Millisecond, func() {})
	e.RunUntil(-1)
	if !stopped || fired {
		t.Fatalf("lane Stop of a global timer: stopped=%v fired=%v", stopped, fired)
	}
	if e.Now() != 5*time.Millisecond || e.Pending() != 0 {
		t.Fatalf("Sharded after Run: Now=%v Pending=%d, want 5ms and 0", e.Now(), e.Pending())
	}
}

func TestMustQuiesceCountsFiredOnly(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.After(time.Hour+time.Duration(i), func() {}).Stop()
	}
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i), func() {})
	}
	if n := s.MustQuiesce(10); n != 10 || s.Processed() != 10 {
		t.Fatalf("MustQuiesce(10) = %d, Processed = %d, want 10 and 10", n, s.Processed())
	}
	if s.Now() != 9 {
		t.Fatalf("Now = %v after MustQuiesce, want the last live event's 9ns", s.Now())
	}
}

// newTwoLaneEngine returns a two-shard engine (node i on shard i) past
// setup, so driver-level timers land on the global lane and node posts on
// their lanes.
func newTwoLaneEngine(t *testing.T) *Sharded {
	t.Helper()
	e, err := NewSharded(2, []int32{0, 1}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(0)
	return e
}
