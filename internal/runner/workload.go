package runner

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/workload"
)

// WorkloadStreamLabel derives the multi-client workload stream from the
// trial seed: Spec.Timeline consumes all of its randomness from per-client
// substreams split off this one, so the merged publish timeline is a pure
// function of (spec, trial seed) — independent of member count, shard
// width, and every other stream (loss, churn, crash, payload).
const WorkloadStreamLabel = 0xfeed3017

// TimelineFor materializes the scenario's merged publish timeline, the
// single source the kernel drives under either protocol (common random
// numbers across the protocol axis). A nil Workload reproduces the legacy single-sender
// shape exactly — client 0 publishing Msgs messages Gap apart with the
// payloadSizesFor size draws — so pre-workload cells keep their bytes.
// The second result is the largest payload, sizing the kernel's shared
// backing buffer.
func TimelineFor(sc exp.Scenario, seed uint64) (workload.Timeline, int, error) {
	if sc.Workload == nil {
		sizes, maxSize, err := payloadSizesFor(sc.PayloadModel, sc.PayloadBytes, sc.Msgs, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("runner: scenario payload model: %w", err)
		}
		tl := make(workload.Timeline, len(sizes))
		for i, size := range sizes {
			tl[i] = workload.Event{At: time.Duration(i) * sc.Gap, Client: 0, Bytes: size}
		}
		return tl, maxSize, nil
	}
	wlSeed := rng.New(seed).Split(WorkloadStreamLabel).Uint64()
	tl, err := sc.Workload.Timeline(wlSeed)
	if err != nil {
		return nil, 0, fmt.Errorf("runner: scenario workload: %w", err)
	}
	return tl, tl.MaxBytes(), nil
}

// publisherNodes maps timeline client indices to member nodes: client 0 is
// always the topology's sender (so single-client workloads reuse the
// legacy sender), and the rest stride evenly across the member space
// (probing past collisions), spreading publishers over regions. The
// mapping is a pure function of (topology, clients), so the fault
// scheduler protects the same node set under either protocol.
func publisherNodes(topo *topology.Topology, clients int) ([]topology.NodeID, error) {
	n := topo.NumNodes()
	if clients > n {
		return nil, fmt.Errorf("runner: %d workload clients exceed %d members", clients, n)
	}
	if clients < 1 {
		clients = 1
	}
	pubs := make([]topology.NodeID, 0, clients)
	used := make(map[topology.NodeID]bool, clients)
	add := func(id topology.NodeID) {
		for used[id] {
			id = topology.NodeID((int(id) + 1) % n)
		}
		used[id] = true
		pubs = append(pubs, id)
	}
	add(topo.Sender())
	for i := 1; i < clients; i++ {
		add(topology.NodeID(i * n / clients))
	}
	return pubs, nil
}

// lateJoin is one VoD late joiner: the member starts crashed (and
// unreachable) and rejoins at the given instant, needing the entire
// published prefix recovered.
type lateJoin struct {
	node topology.NodeID
	at   time.Duration
}

// lateJoinersFor picks the scenario's late-join set: LateJoinFrac of the
// eligible members (everyone except publishers, the sender, and each
// region's first member — the rmtp repair servers, kept up so both
// protocols exclude the same nodes), strided deterministically across the
// eligible list, with join times spread linearly over
// [LateJoinAt, LateJoinAt+LateJoinSpread].
func lateJoinersFor(topo *topology.Topology, spec *workload.Spec, pubs []topology.NodeID) []lateJoin {
	if spec == nil || spec.LateJoinFrac <= 0 {
		return nil
	}
	protected := make(map[topology.NodeID]bool, len(pubs)+topo.NumRegions())
	for _, p := range pubs {
		protected[p] = true
	}
	for r := 0; r < topo.NumRegions(); r++ {
		if members := topo.Members(topology.RegionID(r)); len(members) > 0 {
			protected[members[0]] = true
		}
	}
	var eligible []topology.NodeID
	for id := topology.NodeID(0); int(id) < topo.NumNodes(); id++ {
		if !protected[id] {
			eligible = append(eligible, id)
		}
	}
	k := int(spec.LateJoinFrac*float64(len(eligible)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	joiners := make([]lateJoin, 0, k)
	for j := 0; j < k; j++ {
		at := spec.LateJoinAt
		if k > 1 && spec.LateJoinSpread > 0 {
			at += time.Duration(int64(spec.LateJoinSpread) * int64(j) / int64(k-1))
		}
		joiners = append(joiners, lateJoin{node: eligible[j*len(eligible)/k], at: at})
	}
	return joiners
}

// workloadBytesEngaged reports whether the cell's key set includes the
// byte-currency metrics: the legacy payload/budget axes, or a workload
// spec that draws payload sizes.
func workloadBytesEngaged(sc exp.Scenario) bool {
	return sc.PayloadBytes > 0 || sc.ByteBudget > 0 || sc.PayloadModel != "" ||
		sc.Workload.BytesEngaged()
}

// workloadMetrics adds the workload-cell-only keys.
// Gated on the spec so legacy cells keep the exact key set the committed
// reports pin.
func workloadMetrics(out map[string]float64, sc exp.Scenario, published int, joiners []lateJoin) {
	if sc.Workload == nil {
		return
	}
	out[MKClients] = float64(sc.Workload.Clients)
	out[MKPublishes] = float64(published)
	if sc.Workload.LateJoinFrac > 0 {
		out[MKLateJoiners] = float64(len(joiners))
	}
}

// RunSweeps expands every sweep in order and runs the concatenation
// through one worker pool with RunScenario as the kernel — how
// BENCH_sweep.json appends the workload family after the standing matrix
// without re-byting it.
func RunSweeps(o exp.Options, sweeps ...exp.Sweep) (exp.Report, error) {
	return exp.RunSweeps(o, sweeps, RunScenario)
}
