package runner

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestProtocolDifferentialNoFaultCell is the protocol-axis sanity anchor:
// the identical seed, workload and topology run under both protocols must
// both reach delivery ratio 1.0 with zero unrecoverable losses in the
// no-loss/no-fault cell. Any future protocol change that breaks either
// side's baseline reliability fails here before it can skew a comparison.
func TestProtocolDifferentialNoFaultCell(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		base := exp.Scenario{
			Regions: []int{8, 6, 6},
			Msgs:    12,
			Gap:     20 * time.Millisecond,
			Horizon: 4 * time.Second,
		}
		rrmpSC := base
		rrmpSC.Policy = "two-phase"
		rmtpSC := base
		rmtpSC.Protocol = "rmtp"
		rmtpSC.Policy = "server"
		for name, sc := range map[string]exp.Scenario{"rrmp": rrmpSC, "rmtp": rmtpSC} {
			m, err := RunScenario(sc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if m["delivery_ratio"] != 1.0 {
				t.Fatalf("%s seed %d: delivery_ratio %v, want 1.0", name, seed, m["delivery_ratio"])
			}
			if m["unrecoverable"] != 0 {
				t.Fatalf("%s seed %d: %v unrecoverable losses in a fault-free cell", name, seed, m["unrecoverable"])
			}
		}
	}
}

// TestProtocolSweepDeterministicAcrossParallelism extends the runner-level
// determinism contract to the protocol axis: a mixed rrmp/rmtp sweep with
// faults must aggregate byte-identically at parallel 1 and 8.
func TestProtocolSweepDeterministicAcrossParallelism(t *testing.T) {
	sw := exp.Sweep{
		Regions:    [][]int{{6, 6}},
		Losses:     []float64{0.2},
		Crashes:    []float64{0, 2},
		Partitions: []time.Duration{0, 500 * time.Millisecond},
		Protocols:  []string{"rrmp", "rmtp"},
		Msgs:       10,
		Horizon:    3 * time.Second,
	}
	serial, err := RunSweep(exp.Options{Trials: 3, Parallel: 1, BaseSeed: 5}, sw)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSweep(exp.Options{Trials: 3, Parallel: 8, BaseSeed: 5}, sw)
	if err != nil {
		t.Fatal(err)
	}
	// 1 topo × 1 loss × 2 crash × 2 partition = 4 combos per protocol.
	if len(serial.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(serial.Cells))
	}
	if got, want := fmtReport(t, serial), fmtReport(t, wide); got != want {
		t.Fatal("protocol sweep aggregates differ across parallelism")
	}
	rmtpCells := 0
	for _, c := range serial.Cells {
		if c.Scenario.Protocol == "rmtp" {
			rmtpCells++
		}
	}
	if rmtpCells != len(serial.Cells)/2 {
		t.Fatalf("%d rmtp cells of %d", rmtpCells, len(serial.Cells))
	}
}

// TestRMTPServerCrashUnrecoverableNeverSilent pins the baseline's crash
// semantics: when a region's repair server crash-stops while some of its
// receivers still miss messages, every missing (node, message) pair must
// land in the unrecoverable counter once NAK budgets exhaust — counter ≡
// set, never a silent omission (the PR 2 invariant, extended to rmtp).
func TestRMTPServerCrashUnrecoverableNeverSilent(t *testing.T) {
	topo, err := topology.Chain(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Drop all DATA to the leaf region: only its repair server (via the
	// root) could ever repair it.
	victims := make(map[topology.NodeID]bool)
	for _, n := range topo.Members(1) {
		victims[n] = true
	}
	c, err := NewTreeCluster(TreeClusterConfig{
		Topo: topo,
		Seed: 11,
		Loss: &regionDataDrop{victims: victims},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.StartAcks()
	}
	c.Sender.StartSessions()
	leafServer := topo.MemberAt(1, 0)
	var ids []wire.MessageID
	for i := 0; i < 5; i++ {
		i := i
		c.Engine.At(time.Duration(i)*20*time.Millisecond, func() {
			ids = append(ids, c.Sender.Publish([]byte{byte(i)}))
		})
	}
	// The leaf server crashes before it can fetch the repairs.
	c.Engine.At(10*time.Millisecond, func() { c.Crash(leafServer) })
	c.Engine.RunUntil(3 * time.Second)
	// Quiesce: stop the periodic loops so every bounded NAK budget runs
	// out, then every loss must be explicitly accounted.
	c.Sender.StopSessions()
	for _, n := range c.Nodes {
		n.StopAcks()
	}
	c.Engine.(*sim.Sim).MustQuiesce(5_000_000)

	sawLoss := false
	for _, node := range topo.Members(1) {
		nd := c.Nodes[node]
		unrec := map[uint64]bool{}
		for _, seq := range nd.Unrecovered() {
			unrec[seq] = true
		}
		if int64(len(unrec)) != nd.Metrics().Unrecoverable.Value() {
			t.Fatalf("node %d: Unrecoverable counter %d != set size %d",
				node, nd.Metrics().Unrecoverable.Value(), len(unrec))
		}
		if node == leafServer {
			continue // crashed members are excused from the survivor bound
		}
		for _, id := range ids {
			if nd.HasReceived(id.Seq) {
				t.Fatalf("node %d received %d through a crashed repair server", node, id.Seq)
			}
			if !unrec[id.Seq] {
				t.Fatalf("node %d silently missing seq %d: not counted unrecoverable", node, id.Seq)
			}
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("setup failed: the orphaned region lost nothing")
	}
}

// TestRMTPServerRecoverRepairsOrphanedRegion is the flip side: when the
// crashed repair server comes back, session messages restart the stalled
// NAK loops, the server re-fetches from its parent, and the orphaned
// region drains — unrecoverable counts return to zero.
func TestRMTPServerRecoverRepairsOrphanedRegion(t *testing.T) {
	topo, err := topology.Chain(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	victims := make(map[topology.NodeID]bool)
	for _, n := range topo.Members(1) {
		victims[n] = true
	}
	c, err := NewTreeCluster(TreeClusterConfig{
		Topo: topo,
		Seed: 12,
		Loss: &regionDataDrop{victims: victims},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.StartAcks()
	}
	c.Sender.StartSessions()
	leafServer := topo.MemberAt(1, 0)
	var ids []wire.MessageID
	for i := 0; i < 5; i++ {
		i := i
		c.Engine.At(time.Duration(i)*20*time.Millisecond, func() {
			ids = append(ids, c.Sender.Publish([]byte{byte(i)}))
		})
	}
	c.Engine.At(10*time.Millisecond, func() { c.Crash(leafServer) })
	// Long enough for every receiver to exhaust a NAK budget first.
	c.Engine.At(2*time.Second, func() { c.Recover(leafServer) })
	c.Engine.RunUntil(8 * time.Second)

	for _, node := range topo.Members(1) {
		nd := c.Nodes[node]
		for _, id := range ids {
			if !nd.HasReceived(id.Seq) {
				t.Fatalf("node %d still missing seq %d after server recovery", node, id.Seq)
			}
		}
		if got := nd.Metrics().Unrecoverable.Value(); got != 0 {
			t.Fatalf("node %d: %d unrecoverable after every message arrived", node, got)
		}
		if len(nd.Unrecovered()) != 0 {
			t.Fatalf("node %d: Unrecovered set not drained", node)
		}
	}
}

// regionDataDrop drops DATA to a victim set (recovery traffic untouched).
type regionDataDrop struct{ victims map[topology.NodeID]bool }

func (r *regionDataDrop) Drop(_, to topology.NodeID, ty wire.Type) bool {
	return ty == wire.TypeData && r.victims[to]
}

var _ netsim.LossModel = (*regionDataDrop)(nil)

// TestTreeClusterLeaveDeregistersAcker pins the graceful-leave semantics:
// a departed receiver's frozen ACK floor must not block the server's
// trimming forever, while a crashed receiver's must.
func TestTreeClusterLeaveDeregistersAcker(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		topo, err := topology.SingleRegion(5)
		if err != nil {
			t.Fatal(err)
		}
		// Drop DATA to the victim so its floor stays at zero.
		victim := topo.MemberAt(0, 3)
		c, err := NewTreeCluster(TreeClusterConfig{
			Topo: topo,
			Seed: 9,
			Loss: &regionDataDrop{victims: map[topology.NodeID]bool{victim: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes {
			n.StartAcks()
		}
		// No sessions: the victim never learns what it missed, so its ACK
		// floor stays pinned at 0 until it departs.
		for i := 0; i < 4; i++ {
			i := i
			c.Engine.At(time.Duration(i)*10*time.Millisecond, func() { c.Sender.Publish([]byte{byte(i)}) })
		}
		c.Engine.At(500*time.Millisecond, func() {
			if graceful {
				c.Leave(victim)
			} else {
				c.Crash(victim)
			}
		})
		c.Engine.RunUntil(3 * time.Second)
		server := c.Nodes[topo.MemberAt(0, 0)]
		if graceful {
			if got := server.Buffer().Len(); got != 0 {
				t.Fatalf("server still buffers %d entries after the laggard left gracefully", got)
			}
		} else if got := server.Buffer().Len(); got != 4 {
			t.Fatalf("server trimmed to %d entries while a crashed member's floor is frozen; want 4", got)
		}
	}
}

// fmtReport renders a report as JSON for byte comparison.
func fmtReport(t *testing.T, rep exp.Report) string {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
