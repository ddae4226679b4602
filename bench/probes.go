package main

import (
	"time"

	"repro/internal/clock"
)

// Probes drive one layer's exported API at the sizes the workloads produce,
// for a fixed iteration count, and report ns/op and allocs/op. Each layer's
// probe lives in probe_<layer>.go and imports that layer only (plus the
// value types its API mentions); a probe that needs a scheduler gets the
// manual clock below instead of the sim layer.

// runProbes fills every probe metric. Smoke runs cut the iteration counts
// (and the resident depths) so the harness tests stay fast.
func runProbes(smoke bool, m map[string]float64) {
	scale := 1
	if smoke {
		scale = 100
	}
	probeTopology(scale, m)
	probeWorkload(scale, m)
	probeEventq(scale, m)
	probeSim(scale, m)
	probeNetsim(scale, m)
	probeCore(scale, m)
	probePolicy(scale, m)
	probeRRMP(m)
	probeRMTP(m)
	probeGossipfd(scale, m)
}

// nsPerOp is the mean cost of ops operations started at t0.
func nsPerOp(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// manualClock is a clock.Scheduler whose callbacks run only when the probe
// says so. Post is netsim's allocation-free fast path.
type manualClock struct {
	now   time.Duration
	queue []func()
	epoch int // bumped whenever the queue is reset, so stale timers miss
}

type manualTimer struct {
	c        *manualClock
	epoch, i int
}

// Stop cancels by clearing the queued slot; drain skips cleared slots.
func (t manualTimer) Stop() bool {
	if t.c.epoch != t.epoch || t.c.queue[t.i] == nil {
		return false
	}
	t.c.queue[t.i] = nil
	return true
}

func (c *manualClock) Now() time.Duration { return c.now }

func (c *manualClock) After(_ time.Duration, fn func()) clock.Timer {
	c.queue = append(c.queue, fn)
	return manualTimer{c: c, epoch: c.epoch, i: len(c.queue) - 1}
}

func (c *manualClock) Post(_ time.Duration, fn func()) { c.queue = append(c.queue, fn) }

// drain runs everything queued so far, ignoring delays: probes measure
// call cost, not simulated time. Callbacks queued meanwhile stay queued for
// the next drain (a detector's next tick) or a discard (re-armed timers).
func (c *manualClock) drain() {
	n := len(c.queue)
	for i := 0; i < n; i++ {
		if fn := c.queue[i]; fn != nil {
			c.queue[i] = nil
			fn()
		}
	}
	rest := copy(c.queue, c.queue[n:])
	clear(c.queue[rest:])
	c.queue = c.queue[:rest]
	c.epoch++
}

// discard drops everything queued without running it.
func (c *manualClock) discard() {
	clear(c.queue)
	c.queue = c.queue[:0]
	c.epoch++
}
