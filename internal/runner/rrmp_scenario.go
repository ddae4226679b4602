// This file is the RRMP side of the scenario kernel; the metrickey
// analyzer checks that only keys gated to rrmp (or both) appear here.
//
//metrics:scope rrmp
package runner

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	policyspec "repro/internal/policy"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ScenarioParams returns the protocol parameters a scenario declares:
// the paper's defaults with the scenario's C, λ and repair backoff where
// set, and its byte budget. Crash and partition cells run the gossip
// failure detector so that recovery routes around dead members — as do
// VoD late-join cells, whose joiners are down for seconds; fault-free
// cells keep the detector (and its traffic) off and stay comparable to
// old runs.
func ScenarioParams(sc exp.Scenario) rrmp.Params {
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
	params.FDEnabled = sc.Crash > 0 || sc.PartitionAt > 0 ||
		(sc.Workload != nil && sc.Workload.LateJoinFrac > 0)
	params.ByteBudget = sc.ByteBudget
	return params
}

// ScenarioPolicy returns the per-member policy factory a scenario
// declares (see PolicyFactory): its Policy spec, with FixedHold as the
// fixed kind's hold; unset or negative, the kind's default holds.
func ScenarioPolicy(sc exp.Scenario) (func(topology.View, rrmp.Params) core.Policy, error) {
	spec, err := policyspec.Parse(sc.Policy)
	if err != nil {
		return nil, fmt.Errorf("runner: scenario: %w", err)
	}
	return PolicyFactory(spec, max(sc.FixedHold, 0)), nil
}

// newRRMPDriver builds the paper's protocol for the scenario kernel: the
// cluster (on laneWidth's lanes), one sender per publishing client with its session
// stream started, and the nine rrmp-only keys.
func newRRMPDriver(sc exp.Scenario, seed uint64, topo *topology.Topology, loss netsim.LossModel,
	pubs []topology.NodeID, tracer trace.Tracer) (protocolDriver, error) {
	pol, err := ScenarioPolicy(sc)
	if err != nil {
		return protocolDriver{}, err
	}
	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: ScenarioParams(sc),
		Seed:   seed,
		Loss:   loss,
		Policy: pol,
		Tracer: tracer,
		Shards: sc.Shards,
	})
	if err != nil {
		return protocolDriver{}, fmt.Errorf("runner: scenario cluster: %w", err)
	}

	// One sender per publishing client, client 0 on the legacy sender
	// node: RRMP tracks reception per source (Member.sources), so
	// multi-sender publishes flow through the existing machinery — every
	// publisher announces its own TopSeq via sessions.
	senders := make([]*rrmp.Sender, len(pubs))
	for i, node := range pubs {
		if node == topo.Sender() {
			senders[i] = c.Sender
		} else {
			senders[i] = rrmp.NewSender(c.Members[node])
		}
		senders[i].StartSessions()
	}

	return protocolDriver{
		engine: c.Engine,
		net:    c.Net,
		publish: func(client int, payload []byte) wire.MessageID {
			return senders[client].Publish(payload)
		},
		excused:  func(n topology.NodeID) bool { return c.Members[n].Left() || c.Members[n].Crashed() },
		leave:    func(v topology.NodeID) { c.Members[v].Leave() },
		crash:    c.Crash,
		recover:  c.Recover,
		received: func(n topology.NodeID, id wire.MessageID) bool { return c.Members[n].HasReceived(id) },
		totals:   c.Totals,
		collect: func(out map[string]float64, t *Totals) {
			out[MKLocalRequests] = float64(t.LocalRequests)
			out[MKRemoteRequests] = float64(t.RemoteRequests)
			out[MKRegionalMulticasts] = float64(t.RegionalMulticasts)
			out[MKHandoffs] = float64(t.Handoffs)
			out[MKSearches] = float64(t.Searches)
			out[MKSearchFailures] = float64(t.SearchFailures)
			out[MKLongTermEntries] = float64(t.LongTermEntries)
			out[MKSuspects] = float64(t.Suspects)
			if t.reRecovery.n > 0 {
				out[MKMeanReRecoveryMs] = t.MeanReRecoveryMs
			}
		},
	}, nil
}
