package rmtp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// treeCluster is an RMTP deployment on one simulator: the first member of
// each region is its repair server; the root region's server is the
// sender.
type treeCluster struct {
	sim    *sim.Sim
	net    *netsim.Network
	topo   *topology.Topology
	nodes  []*Node // indexed by NodeID
	sender *Sender
}

// newTreeCluster wires topo the way runner.NewTreeCluster does (a view,
// one netsim.Group for all and a self-registered receiver per node), with paper §4
// latencies. paramsOf gives each node's Params; nil gives every node the
// defaults.
func newTreeCluster(t *testing.T, topo *topology.Topology, seed uint64, loss netsim.LossModel, paramsOf func(topology.NodeID) Params) *treeCluster {
	t.Helper()
	s := sim.New()
	lat := netsim.HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	net := netsim.New(s, lat, loss)
	root := rng.New(seed)
	total := topo.NumNodes()
	c := &treeCluster{sim: s, net: net, topo: topo, nodes: make([]*Node, total)}
	all := make([]topology.NodeID, total)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	childServers := make([][]topology.NodeID, topo.NumRegions())
	for r := range childServers {
		if p := topo.Parent(topology.RegionID(r)); p != topology.NoRegion {
			childServers[p] = append(childServers[p], topo.MemberAt(topology.RegionID(r), 0))
		}
	}
	group := &netsim.Group{Net: net, Members: all}
	for _, node := range all {
		view, err := topo.ViewOf(node)
		if err != nil {
			t.Fatal(err)
		}
		var params Params
		if paramsOf != nil {
			params = paramsOf(node)
		}
		n := New(Config{
			View:         view,
			ChildServers: childServers[topo.RegionOf(node)],
			Transport:    group,
			Sched:        s,
			Rng:          root.Split(uint64(node) + 1),
			Params:       params,
		})
		c.nodes[node] = n
		net.RegisterReceiver(node, n)
	}
	c.sender = NewSender(c.nodes[topo.Sender()])
	return c
}

func (c *treeCluster) receivedCount(seq uint64) int {
	n := 0
	for _, node := range c.nodes {
		if node.HasReceived(seq) {
			n++
		}
	}
	return n
}

func TestTreeLosslessDelivery(t *testing.T) {
	topo, err := topology.Chain(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := newTreeCluster(t, topo, 1, nil, nil)
	for i := 0; i < 3; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	c.sim.RunUntil(time.Second)
	for seq := uint64(1); seq <= 3; seq++ {
		if got := c.receivedCount(seq); got != 10 {
			t.Fatalf("seq %d delivered to %d/10", seq, got)
		}
	}
	var naks int64
	for _, n := range c.nodes {
		naks += n.Metrics().NaksSent.Value()
	}
	if naks != 0 {
		t.Fatalf("%d NAKs on a lossless network", naks)
	}
}

func TestTreeLocalRepair(t *testing.T) {
	topo, err := topology.SingleRegion(10)
	if err != nil {
		t.Fatal(err)
	}
	victim := topo.MemberAt(0, 4)
	loss := &victimLoss{victim: victim}
	c := newTreeCluster(t, topo, 2, loss, nil)
	c.sender.StartSessions()
	c.sender.Publish([]byte("a"))
	c.sender.Publish([]byte("b"))
	c.sim.RunUntil(2 * time.Second)
	if !c.nodes[victim].HasReceived(1) || !c.nodes[victim].HasReceived(2) {
		t.Fatal("victim did not recover from the repair server")
	}
	server := c.nodes[topo.MemberAt(0, 0)]
	if server.Metrics().RepairsSent.Value() == 0 {
		t.Fatal("repair server sent no repairs")
	}
	if c.nodes[victim].Metrics().NaksSent.Value() == 0 {
		t.Fatal("victim sent no NAKs")
	}
}

// victimLoss drops DATA to one node.
type victimLoss struct{ victim topology.NodeID }

func (v *victimLoss) Drop(_, to topology.NodeID, t wire.Type) bool {
	return t == wire.TypeData && to == v.victim
}

// regionDataLoss drops DATA to every member of a victim set.
type regionDataLoss struct{ victims map[topology.NodeID]bool }

func (r *regionDataLoss) Drop(_, to topology.NodeID, t wire.Type) bool {
	return t == wire.TypeData && r.victims[to]
}

func TestTreeHierarchicalRepair(t *testing.T) {
	// The entire leaf region (including its repair server) misses the
	// message; the leaf server must escalate to the root server.
	topo, err := topology.Chain(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	victims := make(map[topology.NodeID]bool)
	for _, n := range topo.Members(1) {
		victims[n] = true
	}
	c := newTreeCluster(t, topo, 3, &regionDataLoss{victims: victims}, nil)
	c.sender.StartSessions()
	c.sender.Publish([]byte("x"))
	c.sim.RunUntil(3 * time.Second)
	for _, n := range topo.Members(1) {
		if !c.nodes[n].HasReceived(1) {
			t.Fatalf("leaf member %d never recovered", n)
		}
	}
	leafServer := c.nodes[topo.MemberAt(1, 0)]
	if leafServer.Metrics().NaksSent.Value() == 0 {
		t.Fatal("leaf server never escalated to the root server")
	}
}

func TestAckTrimsServerBuffer(t *testing.T) {
	topo, err := topology.SingleRegion(6)
	if err != nil {
		t.Fatal(err)
	}
	c := newTreeCluster(t, topo, 4, nil, nil)
	for _, n := range c.nodes {
		n.StartAcks()
	}
	for i := 0; i < 10; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	server := c.nodes[topo.MemberAt(0, 0)]
	c.sim.RunUntil(200 * time.Millisecond) // before most trimming
	c.sim.RunUntil(2 * time.Second)
	if got := len(server.Buffer().Entries()); got != 0 {
		t.Fatalf("server still buffers %d messages after full ACKs", got)
	}
	if server.Buffer().EvictedCount(0) != 0 {
		t.Fatal("unexpected zero-reason evictions")
	}
}

// TestServerRecordsBufferingTime pins that a repair server's buffer times
// its copies: every message the ACK window trims adds one store→evict time
// to the buffer's BufferingTime.
func TestServerRecordsBufferingTime(t *testing.T) {
	topo, err := topology.SingleRegion(6)
	if err != nil {
		t.Fatal(err)
	}
	c := newTreeCluster(t, topo, 4, nil, nil)
	for _, n := range c.nodes {
		n.StartAcks()
	}
	for i := 0; i < 10; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	c.sim.RunUntil(2 * time.Second)
	server := c.nodes[topo.MemberAt(0, 0)]
	bt := server.Buffer().BufferingTime()
	if bt.N() != 10 || bt.Mean() <= 0 {
		t.Fatalf("server recorded %d buffering times, mean %v ms; want 10 with a positive mean", bt.N(), bt.Mean())
	}
}

func TestServerKeepsBufferUntilChildAcks(t *testing.T) {
	// Root server must not trim while the child region's server lags.
	topo, err := topology.Chain(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	victims := make(map[topology.NodeID]bool)
	for _, n := range topo.Members(1) {
		victims[n] = true
	}
	// Drop DATA to the entire child region AND suppress its recovery by
	// not starting sessions: the root server's buffer must retain
	// everything because the child server never acks.
	c := newTreeCluster(t, topo, 5, &regionDataLoss{victims: victims}, nil)
	for _, n := range c.nodes {
		n.StartAcks()
	}
	for i := 0; i < 5; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	c.sim.RunUntil(2 * time.Second)
	rootServer := c.nodes[topo.MemberAt(0, 0)]
	if got := len(rootServer.Buffer().Entries()); got != 5 {
		t.Fatalf("root server trimmed to %d entries while the child region lags", got)
	}
}

func TestLoadConcentratesAtServer(t *testing.T) {
	// The defining contrast with RRMP (§1): the repair server carries the
	// whole buffering load.
	topo, err := topology.SingleRegion(20)
	if err != nil {
		t.Fatal(err)
	}
	c := newTreeCluster(t, topo, 6, nil, nil)
	for i := 0; i < 50; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	c.sim.RunUntil(time.Second)
	server := c.nodes[topo.MemberAt(0, 0)]
	if got := server.Buffer().PeakLen(); got != 50 {
		t.Fatalf("server peak buffer %d, want 50", got)
	}
	for _, n := range topo.Members(0)[1:] {
		if c.nodes[n].Buffer() != nil {
			t.Fatalf("receiver %d owns a buffer", n)
		}
	}
}

func TestStaleNakForTrimmedMessage(t *testing.T) {
	topo, err := topology.SingleRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	c := newTreeCluster(t, topo, 7, nil, nil)
	for _, n := range c.nodes {
		n.StartAcks()
	}
	c.sender.Publish([]byte("x"))
	c.sim.RunUntil(time.Second) // fully acked and trimmed
	server := c.nodes[topo.MemberAt(0, 0)]
	if len(server.Buffer().Entries()) != 0 {
		t.Fatal("setup: buffer not trimmed")
	}
	// A stale NAK for the trimmed message must be ignored, not crash or
	// escalate.
	before := server.Metrics().NaksSent.Value()
	c.net.Unicast(topo.MemberAt(0, 2), topo.MemberAt(0, 0), wire.Message{
		Type: wire.TypeNak, From: topo.MemberAt(0, 2), ID: wire.MessageID{Source: topo.Sender(), Seq: 1},
	})
	c.sim.RunUntil(2 * time.Second)
	if got := server.Metrics().NaksSent.Value(); got != before {
		t.Fatal("stale NAK caused escalation")
	}
}

func TestGiveUpAtRootForUnknownSeq(t *testing.T) {
	topo, err := topology.SingleRegion(3)
	if err != nil {
		t.Fatal(err)
	}
	c := newTreeCluster(t, topo, 8, nil, nil)
	server := c.nodes[topo.MemberAt(0, 0)]
	// Root server told about a sequence that will never arrive.
	server.receive(topo.MemberAt(0, 1), &wire.Message{
		Type: wire.TypeSession, From: topo.Sender(), TopSeq: 3,
	})
	c.sim.MustQuiesce(100_000)
	if server.Metrics().GiveUps.Value() == 0 {
		t.Fatal("root server did not give up on unrecoverable sequences")
	}
}

func TestSenderValidation(t *testing.T) {
	topo, _ := topology.SingleRegion(2)
	view, err := topo.ViewOf(topo.MemberAt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	receiver := New(Config{
		View:      view,
		Transport: &netsim.Group{Net: netsim.New(s, netsim.UniformLatency{}, nil)},
		Sched:     s,
		Rng:       rng.New(1),
	})
	defer func() {
		if recover() == nil {
			t.Fatal("NewSender on a receiver did not panic")
		}
	}()
	NewSender(receiver)
}
