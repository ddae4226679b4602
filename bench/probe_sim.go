package main

import (
	"time"

	"repro/internal/sim"
)

// sim layer: the two engines' bare loops. Each probe keeps `chains`
// self-reposting no-op events resident (a member population's timers and
// in-flight packets) and reports wall time per executed event.

// probeChains is the resident event population of the loop probes, the
// order of stream10k's heap.
const probeChains = 10000

// repost returns the delay of a chain's next event: 1..10 ms, from a
// per-chain LCG, so chains interleave instead of marching in lockstep.
func repost(state *uint64) time.Duration {
	*state = *state*6364136223846793005 + 1442695040888963407
	return time.Millisecond + time.Duration((*state>>33)%9000)*time.Microsecond
}

func probeSim(scale int, m map[string]float64) {
	horizon := 4 * time.Second / time.Duration(scale)

	serial := sim.New()
	for i := 0; i < probeChains; i++ {
		state := uint64(i)
		var fn func()
		fn = func() { serial.Post(repost(&state), fn) }
		serial.Post(repost(&state), fn)
	}
	t0 := time.Now()
	events := serial.RunUntil(horizon)
	m["sim.serial_ns_per_event"] = nsPerOp(t0, int(events))

	// The sharded engine with one node per lane: every chain reposts on
	// its own lane through PostFrom, the network's delivery primitive, so
	// no event crosses a shard and the cost is lanes + windows + barriers.
	w := width()
	lookahead := 50 * time.Millisecond
	newSharded := func() *sim.Sharded {
		nodeShard := make([]int32, w)
		for i := range nodeShard {
			nodeShard[i] = int32(i)
		}
		e, err := sim.NewSharded(w, nodeShard, lookahead)
		if err != nil {
			panic(err) // the arguments above are constants
		}
		return e
	}
	sharded := newSharded()
	for i := 0; i < probeChains; i++ {
		state, node := uint64(i), int32(i%w)
		var fn func()
		fn = func() { sharded.PostFrom(node, node, repost(&state), fn) }
		sharded.PostFrom(node, node, repost(&state), fn)
	}
	t0 = time.Now()
	events = sharded.RunUntil(horizon)
	m["sim.sharded_ns_per_event"] = nsPerOp(t0, int(events))

	// A minimal window: one no-op event per lane per lookahead step, so
	// the time is the window machinery itself — lane scan, goroutine
	// fan-out, barrier, outbox drain.
	empty := newSharded()
	for node := int32(0); node < int32(w); node++ {
		node := node
		var fn func()
		fn = func() { empty.PostFrom(node, node, lookahead, fn) }
		empty.PostFrom(node, node, lookahead, fn)
	}
	windows := 100000 / scale
	t0 = time.Now()
	empty.RunUntil(time.Duration(windows) * lookahead)
	m["sim.sharded_window_ns"] = nsPerOp(t0, windows)
}
