package core

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestBufferingTimeAndLongTermCountPerReason evicts one entry for every
// EvictReason from one budgeted buffer and checks the two figures the
// buffer keeps for its owner. BufferingTime takes one store→evict sample
// per eviction, five in all, and none for the handoff, whose copy lives
// on at a peer; its running mean is exact after each step. LongTermCount,
// read off the index, is checked beside the short-term count after a
// promotion, each eviction, TakeForHandoff and Close.
func TestBufferingTimeAndLongTermCountPerReason(t *testing.T) {
	const ms = time.Millisecond
	s := sim.New()
	// Idle after 40 ms with no election (C = 0), long-term copies age out
	// after 30 ms unused, and four payload bytes fit.
	b := NewBuffer(Config{Policy: NewTwoPhase(testT, 0, 100, 30*ms), Sched: s, Rng: rng.New(1), ByteBudget: 4})
	one := []byte{1}
	step := func(at time.Duration, do func()) {
		t.Helper()
		s.RunUntil(at)
		if do != nil {
			do()
		}
	}
	check := func(when string, long, short, samples int, mean float64) {
		t.Helper()
		if got := b.LongTermCount(); got != long {
			t.Errorf("%s: LongTermCount = %d, want %d", when, got, long)
		}
		if got := b.Len() - b.LongTermCount(); got != short {
			t.Errorf("%s: %d short-term entries, want %d", when, got, short)
		}
		if bt := b.BufferingTime(); bt.N() != samples || bt.Mean() != mean {
			t.Errorf("%s: BufferingTime has %d samples, mean %v ms; want %d, %v ms", when, bt.N(), bt.Mean(), samples, mean)
		}
	}

	// t = 0: the pressure (1), idle (2) and stable (3) victims are
	// short-term; the TTL victim (5) is promoted.
	b.Store(id(1), one)
	b.Store(id(2), one)
	b.Store(id(3), one)
	b.StoreLongTerm(id(5), one)
	check("after the promotion", 1, 3, 0, 0)

	step(10*ms, func() { b.Remove(id(3), EvictStable) })
	check("after the stable eviction", 1, 2, 1, 10)
	// Two more bytes displace the longest-idle short-term entry, 1.
	step(20*ms, func() { b.Store(id(7), []byte{7, 7}) })
	check("after the pressure eviction", 1, 2, 2, 15)
	step(30*ms, nil)
	check("after the TTL eviction", 0, 2, 3, 20)
	step(35*ms, func() { b.StoreLongTerm(id(6), one) })
	check("after the handoff copy's promotion", 1, 2, 3, 20)
	step(40*ms, nil)
	check("after the idle eviction", 1, 1, 4, 25)
	// The handoff takes 6 unsampled and drops 7 (stored at 20 ms) as a
	// manual eviction.
	var taken []*Entry
	step(45*ms, func() { taken = b.TakeForHandoff() })
	if len(taken) != 1 || taken[0].ID != id(6) {
		t.Fatalf("TakeForHandoff returned %v, want entry 6 alone", taken)
	}
	check("after TakeForHandoff", 0, 0, 5, 25)
	for r := EvictIdle; r <= EvictPressure; r++ {
		if got := b.EvictedCount(r); got != 1 {
			t.Errorf("%v evictions = %d, want 1", r, got)
		}
	}

	b.StoreLongTerm(id(8), one)
	check("before Close", 1, 0, 5, 25)
	b.Close()
	check("after Close", 0, 0, 5, 25)
}
