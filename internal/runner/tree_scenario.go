// This file is the RMTP side of the scenario kernel; the metrickey
// analyzer checks that only keys gated to rmtp (or both) appear here — the
// PR 5 "RRMP-only keys never leak into rmtp cells" invariant, statically.
//
//metrics:scope rmtp
package runner

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rmtp"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newRMTPDriver builds the repair-server baseline for the scenario kernel:
// an RMTP tree cluster (one repair server per region, parented along the
// region hierarchy) with every ACK loop and the root's session stream
// started, and the six rmtp-only nak_*/ack_* keys. RMTP is a single-source
// protocol (nodes track reception by bare sequence number from one
// source), so multi-client timelines publish entirely from the root sender
// at the same instants with the same sizes — the common-random-numbers
// pairing across the protocol axis holds on (at, bytes), which is all RMTP
// can express. A late joiner's or crashed member's frozen ACK floor pins
// its server's buffer until it returns: the baseline's way of "planning"
// for absentees is to never trim.
func newRMTPDriver(sc exp.Scenario, seed uint64, topo *topology.Topology, loss netsim.LossModel,
	tracer trace.Tracer) (protocolDriver, error) {
	switch sc.Policy {
	case "", "server":
		// The baseline has exactly one buffering discipline: the repair
		// server buffers all under ACK trimming (exp.Sweep collapses the
		// policy axis to "server" for rmtp cells).
	default:
		return protocolDriver{}, fmt.Errorf("runner: rmtp scenario policy %q (the repair-server baseline has no policy axis; use %q)", sc.Policy, "server")
	}
	if tracer != nil {
		return protocolDriver{}, fmt.Errorf("runner: the rmtp baseline has no tracer hook")
	}

	params := rmtp.DefaultParams()
	params.ByteBudget = sc.ByteBudget
	// The rmtp baseline always runs one event loop (Scenario.Shards is
	// ignored here, see NewTreeCluster).
	c, err := NewTreeCluster(TreeClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Loss:   loss,
	})
	if err != nil {
		return protocolDriver{}, fmt.Errorf("runner: scenario tree cluster: %w", err)
	}
	for _, node := range c.Nodes {
		node.StartAcks()
	}
	c.Sender.StartSessions()

	return protocolDriver{
		engine:   c.Engine,
		net:      c.Net,
		publish:  func(_ int, payload []byte) wire.MessageID { return c.Sender.Publish(payload) },
		excused:  func(n topology.NodeID) bool { return c.Nodes[n].Left() || c.Nodes[n].Crashed() },
		leave:    c.Leave,
		crash:    c.Crash,
		recover:  c.Recover,
		received: func(n topology.NodeID, id wire.MessageID) bool { return c.Nodes[n].HasReceived(id.Seq) },
		node: func(n topology.NodeID) nodeView {
			node := c.Nodes[n]
			mm := node.Metrics()
			return nodeView{
				delivered:       mm.Delivered.Value(),
				duplicates:      mm.Duplicates.Value(),
				repairsSent:     mm.RepairsSent.Value(),
				unrecoverable:   mm.Unrecoverable.Value(),
				recoveryLatency: &mm.RecoveryLatency,
				bufferingTime:   &mm.BufferingTime,
				buffer:          node.Buffer(),
			}
		},
		collect: func(out map[string]float64) {
			var nakSent, nakRecv, ackSent, ackRecv, giveUps int64
			ackTrims := 0
			for _, node := range c.Nodes {
				mm := node.Metrics()
				nakSent += mm.NaksSent.Value()
				nakRecv += mm.NaksRecv.Value()
				ackSent += mm.AcksSent.Value()
				ackRecv += mm.AcksRecv.Value()
				giveUps += mm.GiveUps.Value()
				if b := node.Buffer(); b != nil {
					ackTrims += b.EvictedCount(core.EvictStable)
				}
			}
			out[MKNakSent] = float64(nakSent)
			out[MKNakRecv] = float64(nakRecv)
			out[MKAckSent] = float64(ackSent)
			out[MKAckRecv] = float64(ackRecv)
			out[MKAckTrim] = float64(ackTrims)
			out[MKNakGiveups] = float64(giveUps)
		},
	}, nil
}
