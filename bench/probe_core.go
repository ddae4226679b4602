package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// core layer: the wrapped core.Policy of the open trial (the whole widened
// contract, one span per call), and the probes of the bare Buffer.

// tracedPolicy wraps one member's policy; every call is a span on the
// member's lane.
type tracedPolicy struct {
	inner core.Policy
	lane  *lane
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Hold(id wire.MessageID) (time.Duration, bool) {
	start := time.Now()
	d, reset := p.inner.Hold(id)
	p.lane.span(opPolicyHold, start)
	return d, reset
}

func (p *tracedPolicy) OnIdle(id wire.MessageID, r *rng.Source) core.Decision {
	start := time.Now()
	d := p.inner.OnIdle(id, r)
	p.lane.span(opPolicyOnIdle, start)
	return d
}

func (p *tracedPolicy) LongTermTTL() time.Duration {
	start := time.Now()
	d := p.inner.LongTermTTL()
	p.lane.span(opPolicyLongTermTTL, start)
	return d
}

func (p *tracedPolicy) ObserveStore(id wire.MessageID, at time.Duration) {
	start := time.Now()
	p.inner.ObserveStore(id, at)
	p.lane.span(opPolicyObserveStore, start)
}

func (p *tracedPolicy) ObserveRequest(id wire.MessageID, at time.Duration) {
	start := time.Now()
	p.inner.ObserveRequest(id, at)
	p.lane.span(opPolicyObserveRequest, start)
}

func (p *tracedPolicy) ObserveEvict(id wire.MessageID, reason core.EvictReason) {
	start := time.Now()
	p.inner.ObserveEvict(id, reason)
	p.lane.span(opPolicyObserveEvict, start)
	switch reason {
	case core.EvictIdle:
		p.lane.counts[cntEvictIdle]++
	case core.EvictPressure:
		p.lane.counts[cntEvictPressure]++
	}
}

func (p *tracedPolicy) DisplacedBefore(a, c *core.Entry) bool {
	start := time.Now()
	before := p.inner.DisplacedBefore(a, c)
	p.lane.span(opPolicyDisplacedBefore, start)
	return before
}

// tracedBinderPolicy additionally forwards BindRng, so a policy with a
// private stream (adaptive) draws exactly what it draws unwrapped.
type tracedBinderPolicy struct {
	tracedPolicy
	binder core.RngBinder
}

func (p *tracedBinderPolicy) BindRng(r *rng.Source) { p.binder.BindRng(r) }

// wrapPolicy wraps inner for the member whose lane is l.
func wrapPolicy(inner core.Policy, l *lane) core.Policy {
	tp := tracedPolicy{inner: inner, lane: l}
	if b, ok := inner.(core.RngBinder); ok {
		return &tracedBinderPolicy{tracedPolicy: tp, binder: b}
	}
	return &tp
}

// probeCore times the bare buffer: the store/idle cycle of the lossless
// path, a budgeted store with k resident entries (each store scans them
// for its pressure victim, as pressure300's do), the request-feedback
// lookup, and the adaptive policy's observers.
func probeCore(scale int, m map[string]float64) {
	payload := make([]byte, 1024)
	newBuffer := func(budget int) (*manualClock, *core.Buffer) {
		clk := &manualClock{}
		return clk, core.NewBuffer(core.Config{
			Policy:     core.NewTwoPhase(40*time.Millisecond, 6, 100, time.Minute),
			Sched:      clk,
			Rng:        rng.New(1),
			ByteBudget: budget,
		})
	}

	// Store + idle check, in windows of 512 like a member's buffer between
	// idle rounds. The allocation count includes the scheduler's timer
	// handle (the sim engines allocate one per After as well).
	stores := 1000000 / scale
	clk, buf := newBuffer(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < stores; i++ {
		buf.Store(wire.MessageID{Source: 0, Seq: uint64(i + 1)}, payload)
		if i%512 == 511 {
			clk.now += time.Second
			clk.drain()
			clk.discard() // TTL timers of the elected entries
		}
	}
	m["core.store_idle_ns"] = nsPerOp(t0, stores)
	runtime.ReadMemStats(&ms1)
	m["core.store_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(stores)

	for _, k := range []struct {
		resident int
		metric   string
	}{{16, "core.store_budget_ns_k16"}, {64, "core.store_budget_ns_k64"}} {
		clk, buf := newBuffer(k.resident * len(payload))
		for i := 0; i < k.resident; i++ {
			buf.Store(wire.MessageID{Source: 0, Seq: uint64(i + 1)}, payload)
		}
		n := 300000 / scale
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf.Store(wire.MessageID{Source: 0, Seq: uint64(k.resident + i + 1)}, payload)
			if i%512 == 511 {
				clk.discard() // idle timers of evicted entries
			}
		}
		m[k.metric] = nsPerOp(t0, n)
	}

	const live = 1024
	_, buf = newBuffer(0)
	for i := 0; i < live; i++ {
		buf.Store(wire.MessageID{Source: 0, Seq: uint64(i + 1)}, payload)
	}
	requests := 5000000 / scale
	t0 = time.Now()
	for i := 0; i < requests; i++ {
		buf.OnRequest(wire.MessageID{Source: 0, Seq: uint64(i%live + 1)})
	}
	m["core.onrequest_ns"] = nsPerOp(t0, requests)

	// The adaptive policy's per-store and per-request demand updates over
	// four sources, pressure300's publisher count.
	adaptive := core.NewAdaptiveHold(core.AdaptiveConfig{
		TMin: 20 * time.Millisecond, TMax: 200 * time.Millisecond, Target: 2, C: 6, N: 100,
	})
	observes := 5000000 / scale
	t0 = time.Now()
	for i := 0; i < observes; i++ {
		id := wire.MessageID{Source: topology.NodeID(i & 3), Seq: uint64(i)}
		adaptive.ObserveStore(id, 0)
		adaptive.ObserveRequest(id, 0)
	}
	m["core.adaptive_observe_ns"] = nsPerOp(t0, 2*observes)
}
