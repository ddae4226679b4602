package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/wire"
)

// netsim layer: the wrapped loss and latency models of the open trial, and
// the probes of the bare delivery path.

// lossStreamLabel is runner's loss stream label. It is unexported there;
// the mirror check fails if the two ever drift apart.
const lossStreamLabel = 0xfeed1055

// tracedLoss wraps a LossModel with a span per Drop, counted on the
// sending node's lane (Unicast runs on the sender's loop).
type tracedLoss struct {
	inner  netsim.LossModel
	laneOf func(topology.NodeID) *lane
}

func (t tracedLoss) Drop(from, to topology.NodeID, typ wire.Type) bool {
	start := time.Now()
	drop := t.inner.Drop(from, to, typ)
	t.laneOf(from).span(opLoss, start)
	return drop
}

// tracedLatency wraps a LatencyModel the same way.
type tracedLatency struct {
	inner  netsim.LatencyModel
	laneOf func(topology.NodeID) *lane
}

func (t tracedLatency) OneWay(from, to topology.NodeID) time.Duration {
	start := time.Now()
	d := t.inner.OneWay(from, to)
	t.laneOf(from).span(opLatency, start)
	return d
}

// wrappedNetModels builds the scenario's loss and latency models the way
// runner does — hash-mode loss seeded from the trial seed's loss stream,
// the hierarchical latency model — and wraps both. A lossless scenario
// keeps a nil loss model, so its loss counters read zero calls.
func wrappedNetModels(sc exp.Scenario, seed uint64, topo *topology.Topology,
	laneOf func(topology.NodeID) *lane) (netsim.LossModel, netsim.LatencyModel, error) {
	lat := tracedLatency{
		inner:  netsim.HierLatency{Topo: topo, IntraOneWay: runner.IntraOneWay, InterOneWay: runner.InterOneWay},
		laneOf: laneOf,
	}
	if sc.Loss <= 0 {
		return nil, lat, nil
	}
	if sc.LossMode != "hash" || sc.Burst {
		return nil, nil, fmt.Errorf("open trial: only hash-mode Bernoulli loss is mirrored, not mode %q burst=%v", sc.LossMode, sc.Burst)
	}
	hashSeed := rng.New(seed).Split(lossStreamLabel).Uint64()
	inner := netsim.NewHashLoss(hashSeed, sc.Loss, topo.NumNodes(), map[wire.Type]bool{wire.TypeData: true})
	return tracedLoss{inner: inner, laneOf: laneOf}, lat, nil
}

// droppedPackets sums the per-type drop counters.
func droppedPackets(st *netsim.Stats) float64 {
	var n int64
	for t := 0; t < wire.TypeCount; t++ {
		n += st.DroppedCount(wire.Type(t))
	}
	return float64(n)
}

// probeNetsim times the bare delivery path at the sizes the workloads
// produce: one unicast through to dispatch, a 10k-target multicast, and
// the two hash-mode loss draws.
func probeNetsim(scale int, m map[string]float64) {
	const fanout = 10000
	topo, err := topology.BalancedTree(4, 4, fanout)
	if err != nil {
		return
	}
	clk := &manualClock{}
	net := netsim.New(clk, netsim.HierLatency{Topo: topo, IntraOneWay: runner.IntraOneWay, InterOneWay: runner.InterOneWay}, nil)
	all := make([]topology.NodeID, topo.NumNodes())
	for i := range all {
		all[i] = topology.NodeID(i)
		net.Register(all[i], func(netsim.Packet) {})
	}
	msg := wire.Message{Type: wire.TypeData, From: topo.Sender(),
		ID: wire.MessageID{Source: topo.Sender(), Seq: 1}, Payload: make([]byte, 256)}
	to := topo.MemberAt(0, 1)

	unicasts := 2000000 / scale
	for i := 0; i < 1000; i++ { // fill the delivery pool
		net.Unicast(topo.Sender(), to, msg)
		clk.drain()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < unicasts; i++ {
		net.Unicast(topo.Sender(), to, msg)
		clk.drain()
	}
	m["netsim.unicast_ns"] = nsPerOp(t0, unicasts)
	runtime.ReadMemStats(&ms1)
	m["netsim.unicast_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(unicasts)

	rounds := 200 / scale
	if rounds < 2 {
		rounds = 2
	}
	net.Multicast(topo.Sender(), all, msg)
	clk.drain()
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		net.Multicast(topo.Sender(), all, msg)
		clk.drain()
	}
	m["netsim.multicast_ns_per_target"] = nsPerOp(t0, rounds*(fanout-1))

	draws := 5000000 / scale
	hash := netsim.NewHashLoss(1, 0.05, fanout, nil)
	t0 = time.Now()
	for i := 0; i < draws; i++ {
		hash.Drop(topology.NodeID(i%fanout), 0, wire.TypeData)
	}
	m["netsim.hashloss_ns"] = nsPerOp(t0, draws)

	burst := netsim.NewHashBurstLoss(1, 0.0125, 0.9, 0.02, 0.2, fanout, nil)
	t0 = time.Now()
	for i := 0; i < draws; i++ {
		burst.Drop(0, topology.NodeID(i%fanout), wire.TypeData)
	}
	m["netsim.hashburst_ns"] = nsPerOp(t0, draws)
}
