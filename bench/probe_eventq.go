package main

import (
	"time"

	"repro/internal/eventq"
)

// eventq layer: steady-state PushKeyed+PopFire at the resident depths the
// workloads reach (1e3: a sweep600 cell; 1e5: stream10k's serial heap; 1e6:
// the scale ladder's upper rows), and the cancel path protocol timers use.
// The d1e3 -> d1e6 slope is the first candidate explanation of the
// events/s decay BENCH_scale.json records.
func probeEventq(scale int, m map[string]float64) {
	fn := func() {}
	// A xorshift stream of event times: the simulator's reality is random
	// times, which defeat the heap's sequential best case.
	x := uint64(0x9e3779b97f4a7c15)
	next := func() time.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return time.Duration(x % 1000000)
	}
	ops := 1000000 / scale
	for _, d := range []struct {
		depth  int
		metric string
	}{{1000, "eventq.pushpop_ns_d1e3"}, {100000, "eventq.pushpop_ns_d1e5"}, {1000000, "eventq.pushpop_ns_d1e6"}} {
		depth := d.depth
		if scale > 1 && depth > 10000 {
			depth = 10000
		}
		var q eventq.Queue
		for i := 0; i < depth; i++ {
			q.PushKeyed(next(), 0, 0, fn)
		}
		// Steady state: pop the earliest, push one a random distance
		// ahead of it, so the resident depth never changes.
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			at, _, _ := q.PopFire()
			q.PushKeyed(at+next(), at, 0, fn)
		}
		m[d.metric] = nsPerOp(t0, ops)
	}

	var q eventq.Queue
	for i := 0; i < 1000; i++ {
		q.PushKeyed(next(), 0, 0, fn)
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		e := q.PushKeyed(next(), 0, 0, fn)
		q.Cancel(e, e.Gen())
	}
	m["eventq.cancel_ns"] = nsPerOp(t0, ops)
}
