// This file is the RRMP side of the scenario kernel; the metrickey
// analyzer checks that only keys gated to rrmp (or both) appear here.
//
//metrics:scope rrmp
package runner

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	policyspec "repro/internal/policy"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newRRMPDriver builds the paper's protocol for the scenario kernel: the
// cluster (sharded when the scenario asks and its loss model allows it,
// see newDeployment), one sender per publishing client with its session
// stream started, and the nine rrmp-only keys.
func newRRMPDriver(sc exp.Scenario, seed uint64, topo *topology.Topology, loss netsim.LossModel,
	pubs []topology.NodeID, tracer trace.Tracer) (protocolDriver, error) {
	hold := sc.FixedHold
	if hold <= 0 {
		hold = 500 * time.Millisecond
	}
	spec, err := policyspec.Parse(sc.Policy)
	if err != nil {
		return protocolDriver{}, fmt.Errorf("runner: scenario: %w", err)
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
	// Crash and partition cells run the gossip failure detector so that
	// recovery routes around dead members — as do VoD late-join cells,
	// whose joiners are down for seconds; fault-free cells keep the
	// detector (and its traffic) off and stay comparable to old runs.
	params.FDEnabled = sc.Crash > 0 || sc.PartitionAt > 0 ||
		(sc.Workload != nil && sc.Workload.LateJoinFrac > 0)
	params.ByteBudget = sc.ByteBudget
	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Loss:   loss,
		Policy: PolicyFactory(spec, hold),
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
		excused: func(n topology.NodeID) bool { return c.Members[n].Left() || c.Members[n].Crashed() },
		leave:   func(v topology.NodeID) { c.Members[v].Leave() },
		crash: func(v topology.NodeID) {
			c.Members[v].Crash()
			c.Net.SetDown(v, true)
		},
		recover: func(v topology.NodeID) {
			c.Net.SetDown(v, false)
			c.Members[v].Recover()
		},
		received: func(n topology.NodeID, id wire.MessageID) bool { return c.Members[n].HasReceived(id) },
		node: func(n topology.NodeID) nodeView {
			m := c.Members[n]
			mm := m.Metrics()
			return nodeView{
				delivered:       mm.Delivered.Value(),
				duplicates:      mm.Duplicates.Value(),
				repairsSent:     mm.RepairsSent.Value(),
				unrecoverable:   mm.Unrecoverable.Value(),
				recoveryLatency: &mm.RecoveryLatency,
				bufferingTime:   &mm.BufferingTime,
				buffer:          m.Buffer(),
			}
		},
		collect: func(out map[string]float64) {
			var localReq, remoteReq, regional, handoffs int64
			var searches, searchFailures, suspects int64
			var rerecSum, rerecN float64
			longTerm := 0
			for _, m := range c.Members {
				mm := m.Metrics()
				localReq += mm.LocalReqSent.Value()
				remoteReq += mm.RemoteReqSent.Value()
				regional += mm.RegionalMulticasts.Value()
				handoffs += mm.HandoffsSent.Value()
				searches += mm.SearchesStarted.Value()
				searchFailures += mm.SearchFailures.Value()
				suspects += mm.Suspects.Value()
				longTerm += m.Buffer().LongTermCount()
				rerecSum += mm.ReRecoveryLatency.Mean() * float64(mm.ReRecoveryLatency.N())
				rerecN += float64(mm.ReRecoveryLatency.N())
			}
			out[MKLocalRequests] = float64(localReq)
			out[MKRemoteRequests] = float64(remoteReq)
			out[MKRegionalMulticasts] = float64(regional)
			out[MKHandoffs] = float64(handoffs)
			out[MKSearches] = float64(searches)
			out[MKSearchFailures] = float64(searchFailures)
			out[MKLongTermEntries] = float64(longTerm)
			out[MKSuspects] = float64(suspects)
			if rerecN > 0 {
				out[MKMeanReRecoveryMs] = rerecSum / rerecN
			}
		},
	}, nil
}
