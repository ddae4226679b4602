package runner

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/rrmp"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestBarrierBoundaryFaultCut is the batch-ahead regression trap: a fault
// cut (node down, partition, heal) landing *exactly* on a conservative-
// lookahead barrier boundary k×InterOneWay — including the very first
// lookahead horizon at W — must execute on the coordinator at precisely
// its scheduled instant, between windows, and produce identical protocol
// outcomes at any shard count. An engine that batches a window ahead
// before honoring driver events would run member events at t ∈ [kW, kW+W)
// against the pre-cut network state and diverge here.
func TestBarrierBoundaryFaultCut(t *testing.T) {
	const W = InterOneWay

	type outcome struct {
		cutAt, healAt, partAt time.Duration
		received              map[wire.MessageID]int
		sent, bytes           int64
		partitionDrops        int64
		events                uint64
	}

	run := func(t *testing.T, shards int) outcome {
		t.Helper()
		topo, err := topology.BalancedTree(4, 2, 60)
		if err != nil {
			t.Fatal(err)
		}
		params := rrmp.DefaultParams()
		params.FDEnabled = true
		c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, sharded := c.Engine.(*sim.Sharded); shards > 1 && !sharded {
			t.Fatalf("shards=%d: cluster fell back to the serial engine", shards)
		}
		c.Sender.StartSessions()

		var ids []wire.MessageID
		for i := 0; i < 10; i++ {
			i := i
			c.Engine.At(time.Duration(i)*20*time.Millisecond, func() {
				ids = append(ids, c.Sender.Publish([]byte("barrier-payload")))
			})
		}

		// The victim sits in the last region: with 4 shards it is owned by
		// the highest shard, so the cut crosses every lane boundary.
		victim := c.All[len(c.All)-1]
		out := outcome{cutAt: -1, healAt: -1, partAt: -1}
		// Cut at exactly the first lookahead horizon W, heal at 3W, then a
		// partition episode on the 4W and 6W boundaries.
		c.Engine.At(W, func() {
			out.cutAt = c.Engine.Now()
			c.Net.SetDown(victim, true)
		})
		c.Engine.At(3*W, func() {
			out.healAt = c.Engine.Now()
			c.Net.SetDown(victim, false)
		})
		c.Engine.At(4*W, func() {
			out.partAt = c.Engine.Now()
			c.Net.SetPartition(PartitionClasses(topo))
		})
		c.Engine.At(6*W, func() { c.Net.ClearPartition() })

		c.Engine.RunUntil(2 * time.Second)

		out.received = make(map[wire.MessageID]int, len(ids))
		for _, id := range ids {
			out.received[id] = c.CountReceived(id)
		}
		st := c.Net.Stats()
		out.sent, out.bytes = st.TotalSent(), st.TotalBytes()
		out.partitionDrops = st.PartitionDrops()
		out.events = c.Engine.Processed()
		return out
	}

	serial := run(t, 1)
	if serial.cutAt != W || serial.healAt != 3*W || serial.partAt != 4*W {
		t.Fatalf("serial fault events fired at %v/%v/%v, want %v/%v/%v",
			serial.cutAt, serial.healAt, serial.partAt, W, 3*W, 4*W)
	}
	for _, shards := range []int{2, 4} {
		got := run(t, shards)
		// The cut must execute at its exact barrier instant — never
		// deferred to a later barrier nor batch-executed early.
		if got.cutAt != W || got.healAt != 3*W || got.partAt != 4*W {
			t.Fatalf("shards=%d: fault events fired at %v/%v/%v, want %v/%v/%v",
				shards, got.cutAt, got.healAt, got.partAt, W, 3*W, 4*W)
		}
		if got.sent != serial.sent || got.bytes != serial.bytes {
			t.Errorf("shards=%d: %d packets / %d bytes sent, serial %d / %d",
				shards, got.sent, got.bytes, serial.sent, serial.bytes)
		}
		if got.partitionDrops != serial.partitionDrops {
			t.Errorf("shards=%d: %d partition drops, serial %d",
				shards, got.partitionDrops, serial.partitionDrops)
		}
		if got.events != serial.events {
			t.Errorf("shards=%d: %d events processed, serial %d", shards, got.events, serial.events)
		}
		if len(got.received) != len(serial.received) {
			t.Fatalf("shards=%d: %d messages published, serial %d",
				shards, len(got.received), len(serial.received))
		}
		for id, want := range serial.received {
			if got.received[id] != want {
				t.Errorf("shards=%d: message %v reached %d members, serial %d",
					shards, id, got.received[id], want)
			}
		}
	}
}

// TestScenarioPartitionOnLookaheadHorizon runs the full scenario kernel
// with a partition cut pinned to an exact lookahead multiple and crash
// recovery spanning barrier boundaries — the scenario-level version of the
// batch-ahead trap — and requires metric-identical results across shard
// counts.
func TestScenarioPartitionOnLookaheadHorizon(t *testing.T) {
	sc := exp.Scenario{
		Tree:  &exp.TreeShape{Branch: 3, Levels: 3, Members: 100},
		Crash: 2,
		// Recovery spans exactly three lookahead windows.
		CrashRecover: 3 * InterOneWay,
		// The cut lands on the 5th lookahead barrier, the heal two
		// barriers later.
		PartitionAt:  5 * InterOneWay,
		PartitionDur: 2 * InterOneWay,
		Policy:       "two-phase",
		Msgs:         10,
		Gap:          20 * time.Millisecond,
		Horizon:      2 * time.Second,
	}
	serial, err := RunScenario(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		sc := sc
		sc.Shards = shards
		got, err := RunScenario(sc, 11)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for k, v := range serial {
			if got[k] != v {
				t.Errorf("shards=%d: metric %q = %v, serial %v", shards, k, got[k], v)
			}
		}
		if got["partition_drops"] == 0 {
			t.Errorf("shards=%d: the pinned partition never dropped a packet", shards)
		}
	}
}
