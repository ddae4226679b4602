// Package netsim models the network underneath the protocol: per-pair
// one-way latency, per-packet loss, unicast, and IP-multicast-style fan-out
// with independent per-receiver loss draws.
//
// It substitutes for the paper's unspecified WAN testbed. The evaluation in
// §4 depends only on the latency structure (a fixed intra-region RTT, much
// larger inter-region latency) and on which receivers the initial multicast
// reaches; both are explicit models here. All randomness comes from
// dedicated rng streams so runs are reproducible.
//
// The delivery path is engineered for 1000+-member fan-outs: per-node state
// (receivers, crash flags, partition classes) lives in dense slices indexed
// by NodeID, traffic counters are fixed per-type arrays, in-flight packets
// are pooled delivery records with a pre-bound callback, and events are
// scheduled through the scheduler's no-handle Post path when available.
// Steady-state packet delivery therefore allocates nothing.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Packet is one message in flight together with its delivery metadata.
type Packet struct {
	From, To topology.NodeID
	Msg      wire.Message
	Size     int // bytes charged to traffic accounting
}

// Handler consumes packets delivered to a registered node.
type Handler func(pkt Packet)

// PacketReceiver consumes packets like a Handler, but as an interface: a
// receiver registers its own method (RegisterReceiver) instead of a
// per-node closure, so wiring n nodes costs no handler allocations — the
// difference between a million closures and none at cluster setup.
type PacketReceiver interface {
	ReceivePacket(pkt Packet)
}

// ReceivePacket makes a Handler a PacketReceiver, so the network keeps one
// receiver table whichever way a node registered.
func (h Handler) ReceivePacket(pkt Packet) { h(pkt) }

// LatencyModel yields the one-way delay between two members.
type LatencyModel interface {
	OneWay(from, to topology.NodeID) time.Duration
}

// LossModel decides whether a packet is dropped. Implementations may keep
// per-pair state (burst models) and may discriminate by message type, which
// the experiments use to make recovery traffic lossless as in §4.
type LossModel interface {
	Drop(from, to topology.NodeID, t wire.Type) bool
}

// poster is the optional scheduler fast path: schedule without returning a
// cancellation handle (packet deliveries are never cancelled). The
// simulator's *sim.Sim implements it; any other clock.Scheduler falls back
// to After with the handle discarded.
type poster interface {
	Post(d time.Duration, fn func())
}

// ShardRouter is the delivery primitive: schedule fn after d on the event
// loop owning node to, sent from node from's context. *sim.Sharded
// implements it (EnableSharding installs it); until then the network routes
// through singleLoop.
type ShardRouter interface {
	PostFrom(from, to int32, d time.Duration, fn func())
}

// singleLoop is the router of an unsharded network: one event loop owns
// every node, so every delivery is a plain post on it.
type singleLoop func(d time.Duration, fn func())

// PostFrom implements ShardRouter.
func (post singleLoop) PostFrom(_, _ int32, d time.Duration, fn func()) { post(d, fn) }

// Network delivers packets between registered nodes over a clock.Scheduler.
type Network struct {
	router  ShardRouter
	latency LatencyModel
	loss    LossModel

	// receivers and down are dense, indexed by NodeID (IDs are dense by
	// construction, see topology). Slices grow on
	// Register/RegisterReceiver/SetDown; the last registration wins.
	receivers []PacketReceiver
	down      []bool
	// partition assigns each node a partition class; packets between
	// different classes vanish. partActive gates the check so the
	// partition-free hot path pays a single predictable branch. Nodes
	// beyond the slice are class 0.
	partition  []int32
	partActive bool

	// shardOf maps NodeID -> shard; nil (until EnableSharding) means shard
	// 0 owns every node — an unsharded network is the 1-shard network.
	// Counters and pools are per shard so concurrent shard loops never
	// touch one counter or free list: sends account to (and allocate from)
	// the sending node's shard, deliveries account to (and recycle into)
	// the receiving node's shard, and each shard's state is only ever
	// touched by its own loop or by the coordinator between windows.
	// Records migrate between pools on cross-shard packets, which is safe
	// for the same reason.
	shardOf []int32
	shards  []shard
	merged  Stats
}

// shard is the traffic accounting and delivery-record pool of one event
// loop. Each pooled record carries a pre-bound callback, so scheduling an
// in-flight packet allocates nothing in steady state.
type shard struct {
	stats Stats
	pool  []*delivery
}

// delivery is one in-flight packet. fire is bound once at construction and
// reused for the record's whole pooled lifetime. shard is the receiving
// node's, resolved when the packet is sent.
type delivery struct {
	n        *Network
	from, to topology.NodeID
	shard    int32
	msg      wire.Message
	size     int
	fn       func()
}

// Stats aggregates traffic accounting per message type, stored as dense
// per-type arrays (bump = one array index, no map hashing on the hot path).
type Stats struct {
	sent      [wire.TypeCount]stats.Counter
	delivered [wire.TypeCount]stats.Counter
	dropped   [wire.TypeCount]stats.Counter
	bytes     [wire.TypeCount]stats.Counter
	// Partitioned counts packets (all types) that vanished because their
	// endpoints were in different partition classes; each is also counted
	// in Dropped under its type.
	Partitioned stats.Counter
}

// SentCount returns packets offered for transmission of type t.
func (s *Stats) SentCount(t wire.Type) int64 { return s.sent[int(t)%wire.TypeCount].Value() }

// DeliveredCount returns packets delivered of type t.
func (s *Stats) DeliveredCount(t wire.Type) int64 { return s.delivered[int(t)%wire.TypeCount].Value() }

// DroppedCount returns packets dropped of type t.
func (s *Stats) DroppedCount(t wire.Type) int64 { return s.dropped[int(t)%wire.TypeCount].Value() }

// BytesSent returns the bytes offered for transmission of type t.
func (s *Stats) BytesSent(t wire.Type) int64 { return s.bytes[int(t)%wire.TypeCount].Value() }

// PartitionDrops returns packets dropped by the partition cut.
func (s *Stats) PartitionDrops() int64 { return s.Partitioned.Value() }

// TotalSent returns packets offered across all types.
func (s *Stats) TotalSent() int64 {
	var n int64
	for i := range s.sent {
		n += s.sent[i].Value()
	}
	return n
}

// TotalBytes returns bytes offered across all types.
func (s *Stats) TotalBytes() int64 {
	var n int64
	for i := range s.bytes {
		n += s.bytes[i].Value()
	}
	return n
}

// New creates a network over the given scheduler with the given models.
// A nil loss model means lossless.
func New(sched clock.Scheduler, latency LatencyModel, loss LossModel) *Network {
	if latency == nil {
		panic("netsim: nil latency model")
	}
	if loss == nil {
		loss = NoLoss{}
	}
	post := func(d time.Duration, fn func()) { sched.After(d, fn) }
	if p, ok := sched.(poster); ok {
		post = p.Post
	}
	return &Network{
		router:  singleLoop(post),
		latency: latency,
		loss:    loss,
		shards:  make([]shard, 1),
	}
}

// grow extends the dense per-node slices to cover node.
func (n *Network) grow(node topology.NodeID) {
	need := int(node) + 1
	for len(n.receivers) < need {
		n.receivers = append(n.receivers, nil)
	}
	for len(n.down) < need {
		n.down = append(n.down, false)
	}
}

// Register installs the delivery handler for node; see RegisterReceiver.
func (n *Network) Register(node topology.NodeID, h Handler) {
	if h == nil {
		panic(fmt.Sprintf("netsim: nil handler for node %d", node))
	}
	n.RegisterReceiver(node, h)
}

// RegisterReceiver installs the delivery receiver for node. Registering
// twice replaces the previous registration (used when a member restarts).
func (n *Network) RegisterReceiver(node topology.NodeID, r PacketReceiver) {
	if r == nil {
		panic(fmt.Sprintf("netsim: nil receiver for node %d", node))
	}
	if node < 0 {
		panic(fmt.Sprintf("netsim: RegisterReceiver with negative node %d", node))
	}
	n.grow(node)
	n.receivers[node] = r
}

// SetDown marks a node as crashed: packets to and from it vanish. Used by
// failure-injection tests and the churn experiments.
func (n *Network) SetDown(node topology.NodeID, down bool) {
	if node < 0 {
		return
	}
	n.grow(node)
	n.down[node] = down
}

// IsDown reports whether the node is marked crashed.
func (n *Network) IsDown(node topology.NodeID) bool {
	return node >= 0 && int(node) < len(n.down) && n.down[node]
}

// isDown is the bounds-checked hot-path variant (inlined by the compiler).
func (n *Network) isDown(node topology.NodeID) bool {
	return int(node) < len(n.down) && n.down[node]
}

// SetPartition installs a network partition: every node is assigned the
// class class[node] (absent nodes are class 0) and packets whose endpoints
// lie in different classes are dropped, including packets already in
// flight when the partition begins. The map is copied into a dense table.
// Partition and heal instants are ordinary scheduler events, so fault
// timelines are exactly as deterministic as the rest of the simulation.
func (n *Network) SetPartition(class map[topology.NodeID]int) {
	if len(class) == 0 {
		n.partition, n.partActive = nil, false
		return
	}
	max := topology.NodeID(0)
	for k := range class {
		if k > max {
			max = k
		}
	}
	dense := make([]int32, int(max)+1)
	for k, v := range class {
		if k >= 0 {
			dense[k] = int32(v)
		}
	}
	n.partition, n.partActive = dense, true
}

// ClearPartition heals the partition: all nodes are reconnected.
func (n *Network) ClearPartition() { n.partition, n.partActive = nil, false }

// classOf returns the node's partition class (0 beyond the table).
func (n *Network) classOf(node topology.NodeID) int32 {
	if node >= 0 && int(node) < len(n.partition) {
		return n.partition[node]
	}
	return 0
}

// Partitioned reports whether a and b are currently in different
// partition classes.
func (n *Network) Partitioned(a, b topology.NodeID) bool {
	if !n.partActive {
		return false
	}
	return n.classOf(a) != n.classOf(b)
}

// EnableSharding switches the network onto a sharded simulator: deliveries
// route through r (landing on the shard loop owning the destination node)
// and traffic accounting splits per shard. Call it once, before any
// traffic, with shardOf covering every node. The down/partition tables stay
// shared — they are only mutated by barrier-executed fault events, which
// the sharded engine serializes against all shard loops.
func (n *Network) EnableSharding(r ShardRouter, shardOf []int32, shards int) {
	if r == nil || shards < 1 {
		panic("netsim: EnableSharding with nil router or no shards")
	}
	n.router = r
	n.shardOf = shardOf
	n.shards = make([]shard, shards)
}

// Stats returns the traffic counters. At width 1 this is a live view; over
// several shards it is a snapshot merged across them, recomputed on every
// call (call it only between runs).
func (n *Network) Stats() *Stats {
	if len(n.shards) == 1 {
		return &n.shards[0].stats
	}
	n.merged = Stats{}
	for i := range n.shards {
		n.merged.add(&n.shards[i].stats)
	}
	return &n.merged
}

// add accumulates o's counters into s.
func (s *Stats) add(o *Stats) {
	for i := 0; i < wire.TypeCount; i++ {
		s.sent[i].Add(o.sent[i].Value())
		s.delivered[i].Add(o.delivered[i].Value())
		s.dropped[i].Add(o.dropped[i].Value())
		s.bytes[i].Add(o.bytes[i].Value())
	}
	s.Partitioned.Add(o.Partitioned.Value())
}

// getDelivery takes a delivery record from the shard's pool, or builds one
// with its callback pre-bound.
func (n *Network) getDelivery(sh *shard) *delivery {
	if k := len(sh.pool); k > 0 {
		d := sh.pool[k-1]
		sh.pool[k-1] = nil
		sh.pool = sh.pool[:k-1]
		return d
	}
	d := &delivery{n: n}
	d.fn = d.fire
	return d
}

// fire completes an in-flight packet: re-check liveness and connectivity at
// delivery time (the node may have crashed, or a partition may have cut the
// path, while the packet was in flight), then dispatch to the receiver. The
// record is returned to the pool before the receiver runs, so a receiver
// that immediately sends (the common protocol pattern) reuses it.
func (d *delivery) fire() {
	n, from, to, msg, size := d.n, d.from, d.to, d.msg, d.size
	d.msg = wire.Message{} // drop payload references while pooled
	// Delivery runs on the receiving node's shard loop: recycle into and
	// account against that shard's state.
	sh := &n.shards[d.shard]
	sh.pool = append(sh.pool, d)
	st := &sh.stats

	ti := int(msg.Type) % wire.TypeCount
	if n.partActive && n.classOf(from) != n.classOf(to) {
		st.Partitioned.Inc()
		st.dropped[ti].Inc()
		return
	}
	if n.isDown(to) {
		st.dropped[ti].Inc()
		return
	}
	var r PacketReceiver
	if int(to) < len(n.receivers) {
		r = n.receivers[to]
	}
	if r == nil {
		st.dropped[ti].Inc()
		return
	}
	st.delivered[ti].Inc()
	r.ReceivePacket(Packet{From: from, To: to, Msg: msg, Size: size})
}

// Unicast sends msg from -> to, applying latency and loss models.
func (n *Network) Unicast(from, to topology.NodeID, msg wire.Message) {
	size := msg.EncodedSize()
	ti := int(msg.Type) % wire.TypeCount
	// Send runs on the sending node's shard loop (or the coordinator,
	// which is exclusive): account against that shard's state. The loss
	// model must likewise be shard-safe there (see ShardSafe).
	var src, dst int32
	if n.shardOf != nil {
		src, dst = n.shardOf[from], n.shardOf[to]
	}
	sh := &n.shards[src]
	st := &sh.stats
	st.sent[ti].Inc()
	st.bytes[ti].Add(int64(size))
	if n.partActive && n.classOf(from) != n.classOf(to) {
		st.Partitioned.Inc()
		st.dropped[ti].Inc()
		return
	}
	if n.isDown(from) || n.isDown(to) || n.loss.Drop(from, to, msg.Type) {
		st.dropped[ti].Inc()
		return
	}
	lat := n.latency.OneWay(from, to)
	d := n.getDelivery(sh)
	d.from, d.to, d.shard, d.msg, d.size = from, to, dst, msg, size
	n.router.PostFrom(int32(from), int32(to), lat, d.fn)
}

// Multicast sends msg from -> each target with independent latency and loss
// draws, modeling IP multicast fan-out. Targets equal to from are skipped.
// Loss and latency draws happen in target order, exactly as a loop of
// Unicast calls would, so fan-out batching never changes a seeded run.
func (n *Network) Multicast(from topology.NodeID, targets []topology.NodeID, msg wire.Message) {
	for _, to := range targets {
		if to == from {
			continue
		}
		n.Unicast(from, to, msg)
	}
}

// NoLoss is the lossless LossModel.
type NoLoss struct{}

// Drop implements LossModel (never drops).
func (NoLoss) Drop(topology.NodeID, topology.NodeID, wire.Type) bool { return false }

var _ LossModel = NoLoss{}

// BernoulliLoss drops each packet independently with probability P.
// If Only is non-empty, loss applies exclusively to the listed types; every
// other type is lossless. The experiments use Only = {DATA} to reproduce
// §4's "requests and repairs are not lost" assumption.
type BernoulliLoss struct {
	P    float64
	Only map[wire.Type]bool
	Rng  *rng.Source
}

// Drop implements LossModel.
func (b *BernoulliLoss) Drop(_, _ topology.NodeID, t wire.Type) bool {
	if len(b.Only) > 0 && !b.Only[t] {
		return false
	}
	return b.Rng.Bernoulli(b.P)
}

var _ LossModel = (*BernoulliLoss)(nil)

// HashLoss drops each packet independently with probability P, drawing from
// a per-sender counter-hash stream instead of one shared rng: packet k sent
// by node f is dropped iff hash(Seed, f, k) falls below P. Because each
// sender's draw sequence depends only on that sender's own send order —
// which a deterministic shard loop preserves — the model gives
// byte-identical loss patterns at any shard count, where a shared-stream
// model (BernoulliLoss) would entangle the global send interleaving. If
// Only is non-empty, loss applies exclusively to the listed types (other
// types consume no draw).
type HashLoss struct {
	P    float64
	Seed uint64
	Only map[wire.Type]bool

	// ctr[f] counts loss draws by sender f. Pre-sized at construction so
	// concurrent shard loops never grow the slice.
	ctr []uint64
}

// NewHashLoss builds a HashLoss covering nodes [0, n).
func NewHashLoss(seed uint64, p float64, n int, only map[wire.Type]bool) *HashLoss {
	return &HashLoss{P: p, Seed: seed, Only: only, ctr: make([]uint64, n)}
}

// Drop implements LossModel.
func (h *HashLoss) Drop(from, _ topology.NodeID, t wire.Type) bool {
	if len(h.Only) > 0 && !h.Only[t] {
		return false
	}
	k := h.ctr[from]
	h.ctr[from] = k + 1
	// splitmix64 finalizer over (Seed, from, k).
	z := h.Seed + 0x9e3779b97f4a7c15*(uint64(from)+1) + 0xbf58476d1ce4e5b9*(k+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)*(1.0/(1<<53)) < h.P
}

var _ LossModel = (*HashLoss)(nil)

// GilbertElliott is a two-state burst loss model, tracked per (from, to)
// pair. In the Good state packets drop with PGood; in the Bad state with
// PBad. The chain flips Good->Bad with PGB per packet and Bad->Good with
// PBG. If Only is non-empty, loss applies exclusively to the listed types.
type GilbertElliott struct {
	PGood, PBad float64
	PGB, PBG    float64
	Only        map[wire.Type]bool
	Rng         *rng.Source

	bad map[[2]topology.NodeID]bool
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(from, to topology.NodeID, t wire.Type) bool {
	if len(g.Only) > 0 && !g.Only[t] {
		return false
	}
	if g.bad == nil {
		g.bad = make(map[[2]topology.NodeID]bool)
	}
	key := [2]topology.NodeID{from, to}
	inBad := g.bad[key]
	// Advance the channel state first, then draw loss from the new state.
	if inBad {
		if g.Rng.Bernoulli(g.PBG) {
			inBad = false
		}
	} else {
		if g.Rng.Bernoulli(g.PGB) {
			inBad = true
		}
	}
	g.bad[key] = inBad
	if inBad {
		return g.Rng.Bernoulli(g.PBad)
	}
	return g.Rng.Bernoulli(g.PGood)
}

var _ LossModel = (*GilbertElliott)(nil)

// errSharedStream is why the two models above are not shard-safe.
var errSharedStream = errors.New("shared-stream loss draws from one rng in global send order, which only a single event loop reproduces")

// ShardSafe is the one statement of the shard-safety rule: it returns nil
// if a trial using loss may run on more than one event loop, and the reason
// if it may not. BernoulliLoss and GilbertElliott consume a single rng in
// global send order — several loops would interleave (and race on) its
// draws — so they, and nothing else, pin a run to one loop. Every other
// model (nil, the counter-hash models, a caller's wrapper around one) is
// taken to keep its draw state per sender or per pair, as Unicast requires
// of anything it calls from a shard loop.
func ShardSafe(loss LossModel) error {
	switch loss.(type) {
	case *BernoulliLoss, *GilbertElliott:
		return errSharedStream
	}
	return nil
}

// UniformLatency applies a fixed one-way delay between every pair.
type UniformLatency struct {
	Delay time.Duration
}

// OneWay implements LatencyModel.
func (u UniformLatency) OneWay(_, _ topology.NodeID) time.Duration { return u.Delay }

var _ LatencyModel = UniformLatency{}

// HierLatency derives one-way delay from the topology's region structure:
// IntraOneWay within a region, and InterOneWay per hierarchy hop between
// regions. With the paper's defaults (intra RTT 10 ms, so IntraOneWay 5 ms)
// an adjacent-region one-way is InterOneWay, two hops costs twice that, and
// so on. Hop counts come from the topology's precomputed region depths, so
// the per-packet cost is a short ancestor walk, not a depth recomputation.
type HierLatency struct {
	Topo        *topology.Topology
	IntraOneWay time.Duration
	InterOneWay time.Duration
}

// OneWay implements LatencyModel.
func (h HierLatency) OneWay(from, to topology.NodeID) time.Duration {
	hops := h.Topo.HierarchyDistance(from, to)
	if hops == 0 {
		return h.IntraOneWay
	}
	return time.Duration(hops) * h.InterOneWay
}

var _ LatencyModel = HierLatency{}
