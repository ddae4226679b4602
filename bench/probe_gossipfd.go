package main

import (
	"time"

	"repro/internal/gossipfd"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// gossipfd layer: one gossip tick (own counter, timeout sweep, table sent
// to one peer) and one full-table Receive in a 100-member region — the two
// calls that dominate sweep600's crash and partition cells.
func probeGossipfd(scale int, m map[string]float64) {
	const region = 100
	topo, err := topology.SingleRegion(region)
	if err != nil {
		return
	}
	detector := func(self topology.NodeID, clk *manualClock) *gossipfd.Detector {
		view, err := topo.ViewOf(self)
		if err != nil {
			panic(err) // self is a node of topo
		}
		return gossipfd.New(gossipfd.Config{
			View: view, Sched: clk, Rng: rng.New(uint64(self) + 1),
			Send: func(topology.NodeID, wire.Message) {},
		})
	}
	// The clock never advances, so no peer ever times out and the table
	// stays full: every tick is the steady-state tick.
	clk := &manualClock{}
	ticker := detector(0, clk)
	ticker.Start()
	rounds := 100000 / scale
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		clk.drain() // fires the tick, which queues the next one
	}
	m["gossipfd.tick_ns_n100"] = nsPerOp(t0, rounds)

	// Every counter advances every round, so each Receive updates the
	// whole table, as in a healthy region where everyone gossips.
	receiver := detector(1, &manualClock{})
	msg := wire.Message{Type: wire.TypeHeartbeat, From: 0, Counters: make([]uint64, region)}
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for j := range msg.Counters {
			msg.Counters[j] = uint64(i + 1)
		}
		receiver.Receive(msg)
	}
	m["gossipfd.receive_ns_n100"] = nsPerOp(t0, rounds)
}
