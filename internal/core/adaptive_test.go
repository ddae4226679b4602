package core

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

func adaptiveForTest() *AdaptiveHold {
	return NewAdaptiveHold(AdaptiveConfig{
		TMin: 20 * time.Millisecond, TMax: 200 * time.Millisecond,
		Target: 2, Alpha: 0.5,
		C: 6, N: 100, TTL: time.Minute,
	})
}

func srcID(src topology.NodeID, seq uint64) wire.MessageID {
	return wire.MessageID{Source: src, Seq: seq}
}

// TestAdaptiveHoldScalesWithDemand pins the demand→hold mapping: a quiet
// source holds TMin, demand at the target holds TMax, and the hold is
// clamped at TMax beyond it.
func TestAdaptiveHoldScalesWithDemand(t *testing.T) {
	p := adaptiveForTest()
	if d, reset := p.Hold(srcID(1, 1)); d != 20*time.Millisecond || !reset {
		t.Fatalf("quiet-source hold = %v reset=%v, want TMin and reset-on-request", d, reset)
	}
	// Each request adds alpha=0.5; 4 requests → demand 2.0 = target.
	for i := 0; i < 4; i++ {
		p.ObserveRequest(srcID(1, 1), 0)
	}
	if d := p.demand[1]; d != 2 {
		t.Fatalf("demand after 4 requests = %v, want 2", d)
	}
	if d, _ := p.Hold(srcID(1, 2)); d != 200*time.Millisecond {
		t.Fatalf("hold at target demand = %v, want TMax", d)
	}
	for i := 0; i < 8; i++ {
		p.ObserveRequest(srcID(1, 1), 0)
	}
	if d, _ := p.Hold(srcID(1, 3)); d != 200*time.Millisecond {
		t.Fatalf("hold beyond target demand = %v, want clamped at TMax", d)
	}
	// Halfway demand interpolates linearly: demand 1 of target 2 → midpoint.
	p2 := adaptiveForTest()
	p2.ObserveRequest(srcID(4, 1), 0)
	p2.ObserveRequest(srcID(4, 1), 0)
	if d, _ := p2.Hold(srcID(4, 2)); d != 110*time.Millisecond {
		t.Fatalf("hold at half demand = %v, want 110ms", d)
	}
	// Other sources' demand must not leak.
	if d, _ := p.Hold(srcID(2, 1)); d != 20*time.Millisecond {
		t.Fatalf("unrelated source hold = %v, want TMin", d)
	}
}

// TestAdaptiveDemandDecaysOnStore pins the EWMA direction: stores decay a
// source's demand toward zero (each new message dilutes requests/message),
// requests raise it toward the fixed point requests-per-message / alpha.
func TestAdaptiveDemandDecaysOnStore(t *testing.T) {
	p := adaptiveForTest()
	p.ObserveRequest(srcID(1, 1), 0)
	p.ObserveRequest(srcID(1, 1), 0) // demand 1.0
	p.ObserveStore(srcID(1, 2), 0)   // ×(1-0.5) → 0.5
	if d := p.demand[1]; d != 0.5 {
		t.Fatalf("demand after store decay = %v, want 0.5", d)
	}
	// A steady k-requests-per-message regime converges to demand k: with
	// alpha=0.5 and k=1, d' = 0.5·d + 0.5 has fixed point 1.
	for i := 0; i < 40; i++ {
		p.ObserveStore(srcID(1, uint64(10+i)), 0)
		p.ObserveRequest(srcID(1, uint64(10+i)), 0)
	}
	if d := p.demand[1]; d < 0.99 || d > 1.01 {
		t.Fatalf("steady-state demand = %v, want ~1 (k=1 requests/message)", d)
	}
}

// TestAdaptiveDisplacedBefore pins the policy-owned pressure order: the
// lower-demand source's entries displace first, and equal demand falls
// back to the historic DefaultDisplacedBefore order.
func TestAdaptiveDisplacedBefore(t *testing.T) {
	p := adaptiveForTest()
	p.ObserveRequest(srcID(2, 1), 0) // source 2 is in demand
	cold := &Entry{ID: srcID(1, 1), PromotedAt: -1}
	hot := &Entry{ID: srcID(2, 1), PromotedAt: -1}
	if !p.DisplacedBefore(cold, hot) || p.DisplacedBefore(hot, cold) {
		t.Fatal("lower-demand source must displace before the in-demand one")
	}
	// Same source (equal demand): the historic order decides, which prefers
	// the longer-idle short-term entry.
	a := &Entry{ID: srcID(1, 1), PromotedAt: -1, LastRequest: 10 * time.Millisecond}
	b := &Entry{ID: srcID(1, 2), PromotedAt: -1, LastRequest: 20 * time.Millisecond}
	if !p.DisplacedBefore(a, b) || p.DisplacedBefore(b, a) {
		t.Fatal("equal demand must fall back to the default idle-first order")
	}
	if p.DisplacedBefore(a, b) != DefaultDisplacedBefore(a, b) {
		t.Fatal("equal-demand order diverges from DefaultDisplacedBefore")
	}
}

// TestAdaptiveOnIdlePrefersBoundRng verifies the RngBinder contract: once
// BindRng hands the policy its private stream, OnIdle draws from it and
// ignores the caller-supplied source.
func TestAdaptiveOnIdlePrefersBoundRng(t *testing.T) {
	// C=N makes the election probability 1: every idle entry promotes, so
	// the draw consumes exactly one Bernoulli from whichever stream is used.
	p := NewAdaptiveHold(AdaptiveConfig{
		TMin: time.Millisecond, TMax: time.Millisecond, Target: 1,
		C: 4, N: 4, TTL: time.Minute,
	})
	p.BindRng(rng.New(7))
	caller := rng.New(99)
	callerProbe := rng.New(99)
	if got := p.OnIdle(srcID(1, 1), caller); got != PromoteLongTerm {
		t.Fatalf("OnIdle with C=N = %v, want PromoteLongTerm", got)
	}
	if caller.Uint64() != callerProbe.Uint64() {
		t.Fatal("OnIdle consumed from the caller's rng despite a bound stream")
	}
	if p.LongTermTTL() != time.Minute {
		t.Fatalf("LongTermTTL = %v, want 1m", p.LongTermTTL())
	}
}

// TestAdaptiveConfigValidation pins the constructor's panics and defaults.
func TestAdaptiveConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg AdaptiveConfig) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("NewAdaptiveHold(%s) did not panic", name)
			}
		}()
		NewAdaptiveHold(cfg)
	}
	ok := AdaptiveConfig{TMin: time.Millisecond, TMax: time.Second, Target: 1, C: 1, N: 10}
	bad := ok
	bad.TMin = 0
	mustPanic("TMin=0", bad)
	bad = ok
	bad.TMax = bad.TMin / 2
	mustPanic("TMax<TMin", bad)
	bad = ok
	bad.Target = 0
	mustPanic("Target=0", bad)
	bad = ok
	bad.Alpha = 1.5
	mustPanic("Alpha>1", bad)
	bad = ok
	bad.N = 0
	mustPanic("N=0", bad)
	p := NewAdaptiveHold(ok) // Alpha 0 defaults rather than panics
	p.ObserveRequest(srcID(1, 1), 0)
	if d := p.demand[1]; d != DefaultAdaptiveAlpha {
		t.Fatalf("default-alpha request moved demand to %v, want %v", d, DefaultAdaptiveAlpha)
	}
	if p.Name() != "adaptive" {
		t.Fatalf("Name = %q, want adaptive", p.Name())
	}
}

// TestAdaptiveDemandTrackingAllocsFree guards the demand-tracking hot path:
// after the per-source map entries exist, ObserveStore, ObserveRequest and
// Hold must not allocate — they run once per store and once per NAK on the
// buffer's hottest path.
func TestAdaptiveDemandTrackingAllocsFree(t *testing.T) {
	p := adaptiveForTest()
	const sources = 8
	for s := 0; s < sources; s++ {
		p.ObserveStore(srcID(topology.NodeID(s), 1), 0) // warm the map
	}
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		for s := 0; s < sources; s++ {
			id := srcID(topology.NodeID(s), seq)
			p.ObserveStore(id, 0)
			p.ObserveRequest(id, 0)
			p.Hold(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("demand-tracking hot path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkAdaptiveDemandTracking measures the demand hot path (one store
// observation, one request observation, one hold computation).
func BenchmarkAdaptiveDemandTracking(b *testing.B) {
	p := adaptiveForTest()
	p.ObserveStore(srcID(1, 1), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := srcID(1, uint64(i+1))
		p.ObserveStore(id, 0)
		p.ObserveRequest(id, 0)
		p.Hold(id)
	}
}

// BenchmarkAdaptiveDisplacedBefore measures the policy-owned pressure
// comparator against the historic default.
func BenchmarkAdaptiveDisplacedBefore(b *testing.B) {
	p := adaptiveForTest()
	p.ObserveRequest(srcID(2, 1), 0)
	x := &Entry{ID: srcID(1, 1), PromotedAt: -1}
	y := &Entry{ID: srcID(2, 1), PromotedAt: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DisplacedBefore(x, y)
	}
}

// BenchmarkDefaultDisplacedBefore is the baseline comparator the legacy
// policies inherit through PolicyBase.
func BenchmarkDefaultDisplacedBefore(b *testing.B) {
	x := &Entry{ID: srcID(1, 1), PromotedAt: -1}
	y := &Entry{ID: srcID(2, 1), PromotedAt: -1, LastRequest: time.Millisecond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DefaultDisplacedBefore(x, y)
	}
}
