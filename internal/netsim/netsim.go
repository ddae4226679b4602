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
// by NodeID, and traffic counters are fixed per-type arrays. A
// transmission is one pooled delivery record per arrival instant and
// receiving shard: the record holds one Packet and the list of targets
// that land together, it is posted as one counted event that fires once
// per target (ShardRouter), and each receiver borrows the record's Packet
// for the length of its callback. A 10 000-target multicast is therefore a
// handful of records and queued events, not 10 000 of either, and
// steady-state packet delivery allocates nothing: records and their target
// lists are recycled into the pools of the shard that sent them.
package netsim

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Packet is one message in flight together with its delivery metadata.
type Packet struct {
	From topology.NodeID
	Msg  wire.Message
}

// Handler consumes packets delivered to a registered node. It gets its own
// copy of the Packet.
type Handler func(pkt Packet)

// PacketReceiver consumes packets like a Handler, but as an interface: a
// receiver registers its own method (RegisterReceiver) instead of a
// per-node closure, so wiring n nodes costs no handler allocations — the
// difference between a million closures and none at cluster setup.
//
// The Packet is borrowed: every target of one transmission that arrives at
// the same instant is handed the same *Packet in turn. It is valid only
// until ReceivePacket returns and must not be modified; once the last
// target has received it the network zeroes it for reuse. The slices the
// message references (Payload, Digest, Counters) are not copied and
// follow the sender's ownership: a unicast
// PDU's slices belong to its one receiver, a multicast's are shared by all
// of its targets and are read-only.
type PacketReceiver interface {
	ReceivePacket(pkt *Packet)
}

// PacketDropper is a PacketReceiver that is also handed the unicast
// packets the network drops on their way to it: cut by a partition, sent
// to or from a down node, lost by the loss model, or arriving at a node
// that went down in flight. The dropped packet's slices are the
// receiver's exactly as a delivered one's would be, so a receiver that
// reuses what it is sent (rrmp hands a heartbeat's table back to its
// region's free list) reuses what the network drops too. The packet is
// borrowed, as in ReceivePacket. DropPacket runs on the event loop where
// the drop happens: the receiver's own for a drop at delivery; the
// sender's for a drop at send, so that one is offered only when sender
// and receiver share a loop. Multicast packets are never offered: their
// slices are shared by every target.
type PacketDropper interface {
	PacketReceiver
	DropPacket(pkt *Packet)
}

// ReceivePacket makes a Handler a PacketReceiver, so the network keeps one
// receiver table whichever way a node registered.
func (h Handler) ReceivePacket(pkt *Packet) { h(*pkt) }

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

// ShardRouter is the delivery primitive: schedule f to fire n times in a
// row, d after node from's context's clock, as one event on the event loop
// owning node to. Every fire of one record's event delivers to the
// record's next target, so each target is delivered exactly once whatever
// order the router fires records in. *sim.Sim (one loop) and *sim.Sharded
// (EnableSharding installs it) implement it; a scheduler that does not is
// routed through afterLoop.
type ShardRouter interface {
	PostN(from, to int32, d time.Duration, n int, f clock.Firer)
}

// afterLoop routes through a plain clock.Scheduler: n timers per record,
// their handles dropped, since deliveries are never cancelled. The
// record's Fire is bound once per post, the one closure this path costs
// beyond the scheduler's timers.
type afterLoop struct{ sched clock.Scheduler }

// PostN implements ShardRouter.
func (a afterLoop) PostN(_, _ int32, d time.Duration, n int, f clock.Firer) {
	fn := f.Fire
	for range n {
		a.sched.After(d, fn)
	}
}

// Network delivers packets between registered nodes over a clock.Scheduler.
type Network struct {
	router  ShardRouter
	latency LatencyModel
	loss    LossModel

	// receivers and down are dense, indexed by NodeID (IDs are dense by
	// construction, see topology). Reserve sizes both once for a known
	// node count; Register/RegisterReceiver/SetDown grow them past it. The
	// last registration wins.
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
	// touched by its own loop or by the coordinator between windows. A
	// record belongs to the pools of the shard that sent it; one delivered
	// on another shard goes home through the home shard's returned list,
	// the one piece of shard state another loop writes, under its lock.
	shardOf []int32
	shards  []shard
	merged  Stats
}

// shard is the traffic accounting and delivery-record pools of one event
// loop. A pooled record is its own event's Firer, so scheduling an
// in-flight packet allocates nothing in steady state. open is the scratch
// of the send in progress on this loop: the records it has filled so far,
// one per (latency, receiving shard), in the order it opened them. It
// lives per shard because shard loops send concurrently.
type shard struct {
	stats Stats
	pool  []*delivery
	open  []*delivery
	// spare holds target lists of capacity minSpare<<k in spare[k], for
	// records whose targets outgrow their inline room.
	spare [bits.UintSize][][]topology.NodeID
	// returned takes this shard's records delivered on other shards;
	// reclaim moves them into the pools. back is the other half of the
	// swap, so reclaiming allocates nothing.
	mu             sync.Mutex
	returned, back []*delivery
	// dropped is the packet a unicast dropped at send time is lent as to
	// its receiver's DropPacket.
	dropped Packet
}

// maxOpen bounds the records one send keeps open for joining, so a latency
// model with many distinct delays costs a bounded scan per target. Past
// the bound only the latest record joins besides the first maxOpen-1, so
// those arrival classes stay joinable and any later one only while it is
// the latest.
const maxOpen = 64

// inlineTargets is the target room a record carries in itself: a unicast,
// and any arrival class of up to four targets, never touch the spare
// lists.
const inlineTargets = 4

// minSpare is the capacity of the smallest spare target list.
const minSpare = 2 * inlineTargets

// delivery is one transmission's packet for every target that arrives at
// the same instant on the same receiving shard. It is posted as one event
// of len(targets) firings of the record itself, its own clock.Firer; the
// k-th firing delivers to targets[k], and next is that cursor. home is the
// sending shard, whose pools the record and its targets return to; shard
// is the receiving shard, resolved when the packet is sent. unicast marks
// a record whose packet a drop at delivery offers to its target.
type delivery struct {
	n           *Network
	pkt         Packet
	home, shard int32
	unicast     bool
	lat         time.Duration
	targets     []topology.NodeID
	next        int
	inline      [inlineTargets]topology.NodeID
}

// Stats aggregates traffic accounting per message type, stored as dense
// per-type arrays (bump = one array index, no map hashing on the hot path).
type Stats struct {
	sent    [wire.TypeCount]stats.Counter
	dropped [wire.TypeCount]stats.Counter
	bytes   [wire.TypeCount]stats.Counter
	// Partitioned counts packets (all types) that vanished because their
	// endpoints were in different partition classes; each is also counted
	// in Dropped under its type.
	Partitioned stats.Counter
}

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
// A nil loss model means lossless. A scheduler that is a ShardRouter routes
// the deliveries itself; a *sim.Sharded must then be given its shard map
// by EnableSharding before it runs.
func New(sched clock.Scheduler, latency LatencyModel, loss LossModel) *Network {
	if latency == nil {
		panic("netsim: nil latency model")
	}
	if loss == nil {
		loss = NoLoss{}
	}
	router, ok := sched.(ShardRouter)
	if !ok {
		router = afterLoop{sched}
	}
	return &Network{
		router:  router,
		latency: latency,
		loss:    loss,
		shards:  make([]shard, 1),
	}
}

// Reserve sizes the per-node tables for nodes 0..nodes-1 in one
// allocation each, so registering that many nodes does not regrow them.
func (n *Network) Reserve(nodes int) {
	if nodes > 0 {
		n.grow(topology.NodeID(nodes - 1))
	}
}

// grow extends the dense per-node slices to cover node.
func (n *Network) grow(node topology.NodeID) {
	need := int(node) + 1
	if len(n.receivers) < need {
		n.receivers = append(n.receivers, make([]PacketReceiver, need-len(n.receivers))...)
	}
	if len(n.down) < need {
		n.down = append(n.down, make([]bool, need-len(n.down))...)
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
		s.dropped[i].Add(o.dropped[i].Value())
		s.bytes[i].Add(o.bytes[i].Value())
	}
	s.Partitioned.Add(o.Partitioned.Value())
}

// getDelivery takes a delivery record from shard src's pool, reclaiming
// its returned records when the pool is empty, or builds one.
func (n *Network) getDelivery(src int32) *delivery {
	sh := &n.shards[src]
	if len(sh.pool) == 0 {
		sh.reclaim()
	}
	if k := len(sh.pool); k > 0 {
		d := sh.pool[k-1]
		sh.pool[k-1] = nil
		sh.pool = sh.pool[:k-1]
		return d
	}
	d := &delivery{n: n, home: src}
	d.targets = d.inline[:0]
	return d
}

// recycle puts a delivered record back into its home shard's pools: a
// target list past the inline room goes to the spare lists, and the record
// keeps its inline room.
func (sh *shard) recycle(d *delivery) {
	sh.putSpare(d.targets)
	d.targets = d.inline[:0]
	sh.pool = append(sh.pool, d)
}

// reclaim recycles the records other shards have returned since the last
// reclaim.
func (sh *shard) reclaim() {
	sh.mu.Lock()
	got := sh.returned
	sh.returned = sh.back
	sh.mu.Unlock()
	for i, d := range got {
		sh.recycle(d)
		got[i] = nil
	}
	sh.back = got[:0]
}

// spareClass is the spare list of target lists of capacity c, a power of
// two from minSpare up.
func spareClass(c int) int { return bits.Len(uint(c)) - bits.Len(minSpare) }

// putSpare keeps a target list for a later record, unless it is a
// record's inline room.
func (sh *shard) putSpare(ts []topology.NodeID) {
	if cap(ts) > inlineTargets {
		k := spareClass(cap(ts))
		sh.spare[k] = append(sh.spare[k], ts[:0])
	}
}

// growTargets moves d's full target list to a spare one of twice its
// capacity, reclaiming returned records first if the class has none; the
// full one becomes a spare itself.
func (sh *shard) growTargets(d *delivery) {
	c := 2 * cap(d.targets)
	k := spareClass(c)
	if len(sh.spare[k]) == 0 {
		sh.reclaim()
	}
	var grown []topology.NodeID
	if last := len(sh.spare[k]) - 1; last >= 0 {
		grown = sh.spare[k][last]
		sh.spare[k][last] = nil
		sh.spare[k] = sh.spare[k][:last]
	} else {
		grown = make([]topology.NodeID, 0, c)
	}
	grown = append(grown, d.targets...)
	sh.putSpare(d.targets)
	d.targets = grown
}

// Fire delivers the record's packet to its next target: re-check liveness
// and connectivity at delivery time (the node may have crashed, or a
// partition may have cut the path, while the packet was in flight), then
// lend the packet to the receiver. After the last target's callback
// returns, the record is zeroed and goes home: straight into its pools if
// it was delivered on its home shard, else onto the home's returned list.
func (d *delivery) Fire() {
	n, to := d.n, d.targets[d.next]
	d.next++
	// Delivery runs on the receiving node's shard loop: account against
	// that shard's counters.
	sh := &n.shards[d.shard]
	if r := n.admit(&sh.stats, d.pkt.From, to, d.pkt.Msg.Type); r != nil {
		r.ReceivePacket(&d.pkt)
	} else if d.unicast {
		n.offerDropped(to, &d.pkt)
	}
	if d.next == len(d.targets) {
		d.pkt = Packet{} // drop payload references while pooled
		d.next = 0
		home := &n.shards[d.home]
		if d.home == d.shard {
			home.recycle(d)
			return
		}
		home.mu.Lock()
		home.returned = append(home.returned, d)
		home.mu.Unlock()
	}
}

// admit is Fire's delivery-time check. It returns to's receiver, or counts
// the packet dropped in st and returns nil.
func (n *Network) admit(st *Stats, from, to topology.NodeID, t wire.Type) PacketReceiver {
	ti := int(t) % wire.TypeCount
	if n.partActive && n.classOf(from) != n.classOf(to) {
		st.Partitioned.Inc()
		st.dropped[ti].Inc()
		return nil
	}
	var r PacketReceiver
	if !n.isDown(to) && int(to) < len(n.receivers) {
		r = n.receivers[to]
	}
	if r == nil {
		st.dropped[ti].Inc()
		return nil
	}
	return r
}

// offerDropped hands a dropped unicast packet to to's receiver, if that is
// a PacketDropper.
func (n *Network) offerDropped(to topology.NodeID, pkt *Packet) {
	if int(to) < len(n.receivers) {
		if r, ok := n.receivers[to].(PacketDropper); ok {
			r.DropPacket(pkt)
		}
	}
}

// dropUnicast offers a unicast that send dropped to its receiver, when the
// receiver's loop is the sending shard src's (PacketDropper).
func (n *Network) dropUnicast(sh *shard, src int32, from, to topology.NodeID, msg *wire.Message) {
	if n.shardOf != nil && n.shardOf[to] != src {
		return
	}
	sh.dropped = Packet{From: from, Msg: *msg}
	n.offerDropped(to, &sh.dropped)
	sh.dropped = Packet{}
}

// Unicast sends msg from -> to, applying latency and loss models.
func (n *Network) Unicast(from, to topology.NodeID, msg wire.Message) {
	n.send(from, []topology.NodeID{to}, &msg, false)
}

// Multicast sends msg from -> each target with independent latency and loss
// draws, modeling IP multicast fan-out. Targets equal to from are skipped.
// Loss and latency draws happen in target order, exactly as a loop of
// Unicast calls would, so fan-out batching never changes a seeded run.
func (n *Network) Multicast(from topology.NodeID, targets []topology.NodeID, msg wire.Message) {
	n.send(from, targets, &msg, true)
}

// send is the one transmission path. Each target is accounted, cut by the
// partition, crash flags and loss model (a dropped unicast is offered to
// its receiver, see PacketDropper), and given its latency exactly as a
// lone unicast would be, in target order. A surviving target joins the
// send's open record with its (latency, receiving shard), or opens one from
// the sending shard's pool. msg is copied into each record it opens. Once
// every target is placed, each record is posted as one event of
// len(targets) firings, in the order the records were opened.
//
// Posting a record once fires its targets in the order their own posts
// would have: a record's targets share the key (arrival, send instant,
// sending context) and nothing else is pushed during the send, so their
// events would have been contiguous in their queue, in target order; and
// the records that share a key are two arrival classes' successive
// records, opened, and so posted, in order.
func (n *Network) send(from topology.NodeID, targets []topology.NodeID, msg *wire.Message, multicast bool) {
	size := msg.EncodedSize()
	ti := int(msg.Type) % wire.TypeCount
	// Send runs on the sending node's shard loop (or the coordinator,
	// which is exclusive): account against that shard's state. The loss
	// model must likewise be shard-safe there (see ShardSafe).
	var src int32
	if n.shardOf != nil {
		src = n.shardOf[from]
	}
	sh := &n.shards[src]
	st := &sh.stats
	for _, to := range targets {
		if multicast && to == from {
			continue
		}
		st.sent[ti].Inc()
		st.bytes[ti].Add(int64(size))
		if n.partActive && n.classOf(from) != n.classOf(to) {
			st.Partitioned.Inc()
			st.dropped[ti].Inc()
			if !multicast {
				n.dropUnicast(sh, src, from, to, msg)
			}
			continue
		}
		if n.isDown(from) || n.isDown(to) || n.loss.Drop(from, to, msg.Type) {
			st.dropped[ti].Inc()
			if !multicast {
				n.dropUnicast(sh, src, from, to, msg)
			}
			continue
		}
		lat := n.latency.OneWay(from, to)
		var dst int32
		if n.shardOf != nil {
			dst = n.shardOf[to]
		}
		d := sh.joinable(lat, dst)
		if d == nil {
			d = n.getDelivery(src)
			d.pkt = Packet{From: from, Msg: *msg}
			d.shard, d.lat, d.unicast = dst, lat, !multicast
			sh.open = append(sh.open, d)
		}
		if len(d.targets) == cap(d.targets) {
			sh.growTargets(d)
		}
		d.targets = append(d.targets, to)
	}
	for i, d := range sh.open {
		n.router.PostN(int32(from), int32(d.targets[0]), d.lat, len(d.targets), d)
		sh.open[i] = nil
	}
	sh.open = sh.open[:0]
}

// joinable returns the send's joinable record for (lat, dst), or nil:
// among the first maxOpen-1 records opened and the latest.
func (sh *shard) joinable(lat time.Duration, dst int32) *delivery {
	open := sh.open
	if k := len(open); k > maxOpen {
		if d := open[k-1]; d.lat == lat && d.shard == dst {
			return d
		}
		open = open[:maxOpen-1]
	}
	for i := len(open) - 1; i >= 0; i-- {
		if d := open[i]; d.lat == lat && d.shard == dst {
			return d
		}
	}
	return nil
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
// NewHashLoss's only is non-empty, loss applies exclusively to the listed
// types (other types consume no draw).
type HashLoss struct {
	P      float64
	Seed   uint64
	exempt lossless

	// ctr[f] counts loss draws by sender f. Pre-sized at construction so
	// concurrent shard loops never grow the slice.
	ctr []uint64
}

// NewHashLoss builds a HashLoss covering nodes [0, n).
func NewHashLoss(seed uint64, p float64, n int, only map[wire.Type]bool) *HashLoss {
	return &HashLoss{P: p, Seed: seed, exempt: losslessOutside(only), ctr: make([]uint64, n)}
}

// lossless marks, by type byte, the packet types a hash model never drops.
type lossless [256]bool

// losslessOutside exempts every type outside only; an empty only exempts
// none.
func losslessOutside(only map[wire.Type]bool) lossless {
	var l lossless
	if len(only) > 0 {
		for t := range l {
			l[t] = !only[wire.Type(t)]
		}
	}
	return l
}

// Drop implements LossModel.
func (h *HashLoss) Drop(from, _ topology.NodeID, t wire.Type) bool {
	if h.exempt[t] {
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

// ShardSafe is the one statement of the shard-safety rule: it reports
// whether a trial using loss may run on more than one event loop.
// BernoulliLoss and GilbertElliott consume a single rng in global send
// order — several loops would interleave (and race on) its draws — so
// they, and nothing else, pin a run to one loop. A wrapper that
// names its inner model with an Unwrap() LossModel method is judged by
// that model. Every other model (nil, the counter-hash models, a caller's
// wrapper without Unwrap) is taken to keep its draw state per sender or
// per pair, as Unicast requires of anything it calls from a shard loop.
func ShardSafe(loss LossModel) bool {
	switch m := loss.(type) {
	case *BernoulliLoss, *GilbertElliott:
		return false
	case interface{ Unwrap() LossModel }:
		return ShardSafe(m.Unwrap())
	}
	return true
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
