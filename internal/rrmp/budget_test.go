package rrmp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestBudgetPressureNoSilentLoss runs a lossy two-region group whose
// members can hold only a few payloads at a time: pressure evictions must
// actually occur, and every (member, message) pair must end either
// received or explicitly counted unrecoverable — a budget may cost copies,
// never bookkeeping.
func TestBudgetPressureNoSilentLoss(t *testing.T) {
	topo, err := topology.Chain(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.ByteBudget = 3 * 512 // room for three payloads per member
	loss := &netsim.BernoulliLoss{
		P:    0.2,
		Only: map[wire.Type]bool{wire.TypeData: true},
		Rng:  rng.New(99),
	}
	c := newCluster(t, topo, params, 4, loss)
	c.sender.StartSessions()
	var ids []wire.MessageID
	for i := 0; i < 12; i++ {
		i := i
		c.sim.At(time.Duration(i)*20*time.Millisecond, func() {
			ids = append(ids, c.sender.Publish(make([]byte, 512)))
		})
	}
	c.sim.RunUntil(5 * time.Second)

	pressure := 0
	for _, n := range c.all {
		m := c.members[n]
		pressure += m.Buffer().EvictedCount(core.EvictPressure)
		unrecovered := map[wire.MessageID]bool{}
		for id := range m.Unrecovered {
			unrecovered[id] = true
		}
		for _, id := range ids {
			if !m.HasReceived(id) && !unrecovered[id] {
				t.Fatalf("member %d silently missing %v: neither received nor counted unrecoverable", n, id)
			}
		}
	}
	if pressure == 0 {
		t.Fatal("a 1.5 KB budget under a 6 KB workload produced no pressure evictions")
	}
}

// TestCopyOnStorePinsPayloadImmutability pins the payload-aliasing
// invariant: the sender broadcasts one payload slice that every simulated
// member's buffer entry aliases, so an application reusing its publish
// buffer would corrupt every replica at once — unless Params.CopyOnStore
// snapshots the bytes at store time. Both sides of the knob are asserted,
// so the zero-copy default's hazard stays documented by a failing test if
// buffer code ever starts mutating payloads itself.
func TestCopyOnStorePinsPayloadImmutability(t *testing.T) {
	for _, copyOn := range []bool{true, false} {
		topo, err := topology.Chain(6)
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.CopyOnStore = copyOn
		params.IdleThreshold = time.Hour // keep every entry buffered for the check
		c := newCluster(t, topo, params, 7, nil)

		var published [][]byte
		var ids []wire.MessageID
		for i := 0; i < 4; i++ {
			i := i
			c.sim.At(time.Duration(i)*10*time.Millisecond, func() {
				payload := bytes.Repeat([]byte{byte(i + 1)}, 32)
				published = append(published, payload)
				ids = append(ids, c.sender.Publish(payload))
			})
		}
		c.sim.RunUntil(500 * time.Millisecond)

		// The application "reuses" its buffers after the run has quiesced.
		for _, p := range published {
			for j := range p {
				p[j] = 0xee
			}
		}
		for _, n := range c.all {
			for i, id := range ids {
				e, ok := c.members[n].Buffer().Get(id)
				if !ok {
					t.Fatalf("copy=%v: member %d no longer buffers %v", copyOn, n, id)
				}
				want := byte(i + 1)
				if !copyOn {
					want = 0xee // zero-copy entries alias the mutated slice
				}
				if e.Payload[0] != want {
					t.Fatalf("copy=%v: member %d entry %v holds %#x, want %#x",
						copyOn, n, id, e.Payload[0], want)
				}
			}
		}
	}
}
