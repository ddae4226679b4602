package sim

import (
	"testing"
	"time"
)

// TestPostFireAllocs guards the no-handle event path — Post, then the loop
// firing it — at zero allocations per event, on a standalone Sim and on a
// Sharded engine's lanes. A lane is a Sim composed into a coordinator; the
// composition must not cost a timer box, a closure or an outbox growth per
// event, or every packet delivery of a sharded run pays it.
func TestPostFireAllocs(t *testing.T) {
	fn := func() {}
	check := func(t *testing.T, step func()) {
		t.Helper()
		for i := 0; i < 64; i++ { // warm the event pool, heap and outbox
			step()
		}
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Fatalf("Post + fire allocates %.2f objects/op, want 0", avg)
		}
	}

	t.Run("sim", func(t *testing.T) {
		s := New()
		check(t, func() {
			s.Post(time.Millisecond, fn)
			s.RunUntil(-1)
		})
	})

	const lookahead = 10 * time.Millisecond
	newEngine := func(t *testing.T) *Sharded {
		e, err := NewSharded(2, []int32{0, 1}, lookahead)
		if err != nil {
			t.Fatal(err)
		}
		e.RunUntil(0) // leave setup: posts now land on lanes, not the global lane
		return e
	}
	t.Run("lane", func(t *testing.T) {
		e := newEngine(t)
		before := e.lanes[0].loop.processed
		check(t, func() {
			e.PostFrom(0, 0, time.Millisecond, fn)
			e.RunUntil(-1)
		})
		if e.lanes[0].loop.processed == before {
			t.Fatal("same-shard posts did not run on the owning lane")
		}
	})
	t.Run("cross-lane", func(t *testing.T) {
		e := newEngine(t)
		before := e.lanes[1].loop.processed
		// Cross-shard posts are made from the sending lane's window.
		hop := func() { e.PostFrom(0, 1, lookahead, fn) }
		check(t, func() {
			e.PostFrom(0, 0, 0, hop)
			e.RunUntil(-1)
		})
		if e.lanes[1].loop.processed == before {
			t.Fatal("cross-shard posts did not run on the destination lane")
		}
	})
}
