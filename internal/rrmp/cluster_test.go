package rrmp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// cluster wires a full group over the simulated network for tests.
type cluster struct {
	sim     *sim.Sim
	net     *netsim.Network
	topo    *topology.Topology
	members map[topology.NodeID]*Member
	sender  *Sender
	all     []topology.NodeID
}

func newCluster(t testing.TB, topo *topology.Topology, params Params, seed uint64, loss netsim.LossModel) *cluster {
	t.Helper()
	s := sim.New()
	lat := netsim.HierLatency{
		Topo:        topo,
		IntraOneWay: 5 * time.Millisecond,
		InterOneWay: 50 * time.Millisecond,
	}
	net := netsim.New(s, lat, loss)
	root := rng.New(seed)

	c := &cluster{sim: s, net: net, topo: topo, members: make(map[topology.NodeID]*Member)}
	for r := 0; r < topo.NumRegions(); r++ {
		for _, n := range topo.Members(topology.RegionID(r)) {
			c.all = append(c.all, n)
		}
	}
	for _, n := range c.all {
		view, err := topo.ViewOf(n)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMember(Config{
			View:      view,
			Transport: &NetTransport{Net: net, Self: n, Group: c.all},
			Sched:     s,
			Rng:       root.Split(uint64(n) + 1),
			Params:    params,
		})
		c.members[n] = m
		net.Register(n, func(p netsim.Packet) { m.Receive(p.From, p.Msg) })
	}
	c.sender = NewSender(c.members[topo.Sender()])
	return c
}

func (c *cluster) deliveredCount(id wire.MessageID) int {
	n := 0
	for _, m := range c.members {
		if m.HasReceived(id) {
			n++
		}
	}
	return n
}

func singleRegion(t testing.TB, n int) *topology.Topology {
	t.Helper()
	topo, err := topology.SingleRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func chainRegions(t *testing.T, sizes ...int) *topology.Topology {
	t.Helper()
	topo, err := topology.Chain(sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// regionLoss drops DATA packets destined to the listed nodes (modeling a
// regional loss of the initial multicast).
type regionLoss struct {
	victims map[topology.NodeID]bool
}

func (r *regionLoss) Drop(_, to topology.NodeID, t wire.Type) bool {
	return t == wire.TypeData && r.victims[to]
}
