package rrmp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
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
	tally   *tally
}

func newCluster(t testing.TB, topo *topology.Topology, params Params, seed uint64, loss netsim.LossModel) *cluster {
	t.Helper()
	return buildCluster(t, topo, params, seed, loss, nil, nil, false)
}

// buildCluster is newCluster with every member traced to tracer (nil for
// none) and given hooks(n) (nil for none), its members built one by one
// through NewMember, or, with slab, made in place in one slice as
// runner.NewCluster makes them.
func buildCluster(t testing.TB, topo *topology.Topology, params Params, seed uint64, loss netsim.LossModel,
	tracer trace.Tracer, hooks func(topology.NodeID) Hooks, slab bool) *cluster {
	t.Helper()
	s := sim.New()
	lat := netsim.HierLatency{
		Topo:        topo,
		IntraOneWay: 5 * time.Millisecond,
		InterOneWay: 50 * time.Millisecond,
	}
	net := netsim.New(s, lat, loss)
	root := rng.New(seed)

	c := &cluster{sim: s, net: net, topo: topo, members: make(map[topology.NodeID]*Member), tally: newTally()}
	for r := 0; r < topo.NumRegions(); r++ {
		for _, n := range topo.Members(topology.RegionID(r)) {
			c.all = append(c.all, n)
		}
	}
	transport := c.tally.wrap(&netsim.Group{Net: net, Members: c.all})
	var members []Member
	if slab {
		members = make([]Member, len(c.all))
	}
	// A region's members share one Region, as in runner.NewCluster.
	var region *Region
	for i, n := range c.all {
		view, err := topo.ViewOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if view.SelfIdx == 0 {
			region = NewRegion(view, s, transport, params, tracer)
		}
		cfg := Config{
			View:   view,
			Rng:    root.Split(uint64(n) + 1),
			Region: region,
		}
		if hooks != nil {
			cfg.Hooks = hooks(n)
		}
		var m *Member
		if slab {
			m = &members[i]
			m.Init(cfg)
		} else {
			m = NewMember(cfg)
		}
		c.members[n] = m
		net.Register(n, c.tally.handler(n, m))
	}
	c.sender = NewSender(c.members[topo.Sender()])
	return c
}

// tally counts packets per (node, wire.Type), where a test needs a count
// the protocol does not keep: recv at the node's network handler, before
// the member sees the packet, and sent at the Transport, one per call, so
// a region multicast counts once.
type tally struct {
	sent, recv map[nodeType]int64
}

type nodeType struct {
	node topology.NodeID
	typ  wire.Type
}

func newTally() *tally {
	return &tally{sent: map[nodeType]int64{}, recv: map[nodeType]int64{}}
}

// wrap returns the Transport tr, counting each call in t.sent.
func (t *tally) wrap(tr Transport) Transport {
	return &tallyTransport{Transport: tr, t: t}
}

// handler is n's network handler: it counts each packet in t.recv and
// hands it to m.
func (t *tally) handler(n topology.NodeID, m *Member) netsim.Handler {
	return func(p netsim.Packet) {
		t.recv[nodeType{n, p.Msg.Type}]++
		m.Receive(p.From, p.Msg)
	}
}

// sum totals counts of typ over nodes.
func sum(counts map[nodeType]int64, typ wire.Type, nodes ...topology.NodeID) int64 {
	var n int64
	for _, node := range nodes {
		n += counts[nodeType{node, typ}]
	}
	return n
}

type tallyTransport struct {
	Transport
	t *tally
}

func (tt *tallyTransport) Send(from, to topology.NodeID, msg wire.Message) {
	tt.t.sent[nodeType{from, msg.Type}]++
	tt.Transport.Send(from, to, msg)
}

func (tt *tallyTransport) Multicast(from topology.NodeID, targets []topology.NodeID, msg wire.Message) {
	tt.t.sent[nodeType{from, msg.Type}]++
	tt.Transport.Multicast(from, targets, msg)
}

func (tt *tallyTransport) Broadcast(from topology.NodeID, msg wire.Message) {
	tt.t.sent[nodeType{from, msg.Type}]++
	tt.Transport.Broadcast(from, msg)
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

// traceMember makes sink see the events m emits. A tracer is its region's,
// so this one passes on m's events and drops its peers'.
func traceMember(m *Member, sink trace.Tracer) {
	m.region.tracer = memberTracer{m.self(), sink}
}

type memberTracer struct {
	node topology.NodeID
	sink trace.Tracer
}

func (t memberTracer) Emit(e trace.Event) {
	if e.Node == t.node {
		t.sink.Emit(e)
	}
}
