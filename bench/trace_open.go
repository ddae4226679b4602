package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/rrmp"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file wires the open trial: it is the one place that names several
// layers at once, because it assembles runner.ClusterConfig from the
// wrapped models each probe file provides — exactly the assembly runner's
// RRMP kernel does, which the mirror check verifies run by run.

// openClusterConfig is runner's scenario -> ClusterConfig translation with
// every model wrapped: loss and latency (probe_netsim.go), the buffering
// policy (probe_core.go) and the member hooks (probe_rrmp.go).
func openClusterConfig(sc exp.Scenario, seed uint64, topo *topology.Topology,
	laneOf func(topology.NodeID) *lane) (runner.ClusterConfig, error) {
	loss, lat, err := wrappedNetModels(sc, seed, topo, laneOf)
	if err != nil {
		return runner.ClusterConfig{}, err
	}
	hold := sc.FixedHold
	if hold <= 0 {
		hold = 500 * time.Millisecond
	}
	spec, err := policy.Parse(sc.Policy)
	if err != nil {
		return runner.ClusterConfig{}, err
	}
	build := runner.PolicyFactory(spec, hold)
	if build == nil {
		// Two-phase: runner leaves the factory nil and the member builds
		// the paper's policy itself; build the identical one to wrap it.
		build = func(view topology.View, p rrmp.Params) core.Policy {
			return core.NewTwoPhase(p.IdleThreshold, p.C, view.NumPeers()+1, p.LongTermTTL)
		}
	}
	params := rrmp.DefaultParams()
	if sc.C > 0 {
		params.C = sc.C
	}
	if sc.Lambda > 0 {
		params.Lambda = sc.Lambda
	}
	if sc.RepairBackoff > 0 {
		params.RepairBackoffMax = sc.RepairBackoff
	}
	params.ByteBudget = sc.ByteBudget
	return runner.ClusterConfig{
		Topo:    topo,
		Params:  params,
		Seed:    seed,
		Loss:    loss,
		Latency: lat,
		Policy: func(view topology.View, p rrmp.Params) core.Policy {
			return wrapPolicy(build(view, p), laneOf(view.Self))
		},
		Hooks:  func(n topology.NodeID) rrmp.Hooks { return memberHooks(laneOf(n)) },
		Shards: sc.Shards,
		// A custom latency model must state its lookahead; the wrapped
		// model is the default hierarchical one, whose bound this is.
		Lookahead: runner.InterOneWay,
	}, nil
}

// schedulePublishes starts one sender per timeline client and schedules
// every publish on the engine, as runner's kernel does. The returned
// counter is live: read it after the run.
func schedulePublishes(c *runner.Cluster, tl workload.Timeline) (*int, error) {
	pubs, err := publisherNodes(c.Topo, tl.Clients())
	if err != nil {
		return nil, err
	}
	senders := make([]*rrmp.Sender, len(pubs))
	for i, node := range pubs {
		if node == c.Topo.Sender() {
			senders[i] = c.Sender
		} else {
			senders[i] = rrmp.NewSender(c.Members[node])
		}
		senders[i].StartSessions()
	}
	published := new(int)
	payload := make([]byte, tl.MaxBytes())
	for i := range tl {
		ev := tl[i]
		c.Engine.At(ev.At, func() {
			senders[ev.Client].Publish(payload[:ev.Bytes])
			*published++
		})
	}
	return published, nil
}
