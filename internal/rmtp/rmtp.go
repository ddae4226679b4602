// Package rmtp implements a tree-based reliable multicast baseline in the
// style of RMTP (Paul et al., reference [12]): each region designates a
// repair server that buffers every message and answers NAKs from its
// region; repair servers recover from their parent region's server, and
// ACK windows propagate up the tree to let servers trim their buffers.
//
// The paper contrasts RRMP's diffused buffering with exactly this design:
// "a repair server bears the entire burden of buffering messages for a
// local region" (§1, §6). Ablation A2 and the sweep protocol axis
// (exp.Scenario.Protocol = "rmtp") run both protocols on the same
// workload and compare per-member buffer load.
//
// Fault semantics (DESIGN.md "RMTP baseline semantics"): a crashed repair
// server orphans its region — receivers keep NAKing a corpse, exhaust
// their retry budgets and count the loss as unrecoverable — until the
// server recovers, upon which session messages restart the stalled NAK
// loops. Loss is always explicit, never silent: at any instant, every
// sequence a node is missing is either in an active NAK loop or in the
// Unrecovered set, the same invariant RRMP pins.
package rmtp

import (
	"math"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Transport sends nodes' PDUs; netsim.Group implements it. As with
// rrmp.Transport, every method names the node sending, so a cluster's
// nodes share one, and it must deliver asynchronously (never call back
// into a node from Send).
type Transport interface {
	// Send transmits msg from one node to one peer.
	Send(from, to topology.NodeID, msg wire.Message)
	// Broadcast transmits msg from one node to the whole group (the
	// initial multicast). Only the sender uses it.
	Broadcast(from topology.NodeID, msg wire.Message)
}

// The baseline's timers mirror the RRMP defaults for a fair comparison:
// each NAK retry period is rrmp's RTT estimate plus its retry grace.
const (
	// nakRTT is the retry period for NAKs to the local repair server.
	nakRTT = 10*time.Millisecond + 500*time.Microsecond
	// parentRTT is the retry period for server-to-parent-server NAKs.
	parentRTT = 100*time.Millisecond + 500*time.Microsecond
	// ackInterval is the period of receiver->server ACK windows.
	ackInterval = 100 * time.Millisecond
	// sessionInterval is the sender's session-message period.
	sessionInterval = 100 * time.Millisecond
	// defaultMaxTries is MaxTries when Params leaves it unset.
	defaultMaxTries = 64
)

// Params tunes the baseline protocol.
type Params struct {
	// MaxTries bounds NAK retries (give-ups are counted, and the missing
	// sequence counts as unrecoverable until a late repair or
	// session-driven retry delivers it). Zero selects 64.
	MaxTries int
	// ByteBudget caps the repair server's buffer at this many payload
	// bytes (core.Config.ByteBudget), the same knob rrmp.Params exposes.
	// A store past the cap pressure-evicts the longest-idle entries; a
	// displaced message a receiver still needs is re-fetched from the
	// parent server (or, at the root, surfaces as receiver give-ups).
	// Zero means unlimited, the baseline the paper describes.
	ByteBudget int
	// CopyOnStore makes the repair server's buffer keep a private copy of
	// every payload instead of aliasing the received slice
	// (core.Config.CopyPayload) — the same aliasing guarantee
	// rrmp.Params.CopyOnStore gives the diffused buffers, so byte-for-byte
	// protocol comparisons cover both sides.
	CopyOnStore bool
}

// Config assembles a node.
type Config struct {
	// View is this node's place in the tree, as rrmp.Config's is. The
	// first of View.RegionMembers is the region's repair server, which
	// tracks ACK floors for all the others; the first of
	// View.ParentMembers is the parent region's server (none at the root).
	View topology.View
	// ChildServers lists the repair servers of child regions; their ACKs
	// also gate buffer trimming (a child region may still need repairs).
	ChildServers []topology.NodeID
	// Transport, Sched and Rng are required.
	Transport Transport
	Sched     clock.Scheduler
	Rng       *rng.Source
	// Params tunes the node; zero fields default.
	Params Params
}

// Metrics tallies one node's protocol activity.
type Metrics struct {
	Delivered   stats.Counter
	Duplicates  stats.Counter
	NaksSent    stats.Counter
	NaksRecv    stats.Counter
	RepairsSent stats.Counter
	AcksSent    stats.Counter
	AcksRecv    stats.Counter
	GiveUps     stats.Counter
	// RecoveryLatency averages detect→deliver times for repaired gaps, in
	// milliseconds (the unit rrmp.Metrics.RecoveryLatency uses).
	RecoveryLatency stats.RunningMean
}

// nakState is one in-flight NAK retry loop for sequence seq at node n,
// and its retry timer's Firer, so a loop is one object and every re-arm
// queues the same one. Detection time is kept for the recovery-latency
// histogram. Records are not pooled: a retry left queued by an ended loop
// tells it is stale by the record's identity (see timer).
type nakState struct {
	n          *Node
	seq        uint64
	tries      int
	detectedAt time.Duration
	// refetch marks a server-side loop re-fetching a pressure-displaced
	// message from the parent to serve recorded waiters; the server has
	// already delivered the message, so refetch loops bypass the received
	// check and never count as unrecoverable.
	refetch bool
	// timer is the pending retry. It is never stopped: a loop ends when
	// its nakState leaves Node.naks, and the retry still queued fails the
	// identity check when it fires. Stopping it would drop that event and
	// change the run's event count.
	timer clock.Handle
}

// Node is one RMTP participant (receiver or repair server). Not safe for
// concurrent use.
type Node struct {
	cfg Config // Params defaulted

	isServer bool
	server   topology.NodeID // this region's repair server
	parent   topology.NodeID // the parent region's server, or NoNode
	buffer   *core.Buffer    // repair servers only

	received wire.SeqSet
	maxSeen  uint64
	source   topology.NodeID // learned from the first DATA/SESSION

	// The maps are made on first write.
	naks    map[uint64]*nakState
	waiters map[uint64][]topology.NodeID
	// ackFloors is a server's ACK floor per acker slot (see ackSlot):
	// slot i < len(View.RegionMembers) is RegionMembers[i], and slot
	// len(RegionMembers)+j is ChildServers[j]. Slot 0, the server itself,
	// and forgotten ackers hold forgotten, which no ACK raises and no
	// minimum picks while a real floor remains. minFloor is the least
	// floor and atMin how many slots hold it, so the floor an ACK trims to
	// is read without a walk; only raising the last floor at the minimum
	// rescans (raiseFloor). Nil for plain receivers.
	ackFloors   []uint64
	minFloor    uint64
	atMin       int
	ackTimer    clock.Handle // fires (*ackTick)(n)
	acksStarted bool
	trimmed     uint64 // highest seq removed from the server buffer
	// unrecovered holds sequences this node gave up recovering; cleared on
	// late delivery. See Unrecovered.
	unrecovered map[uint64]bool

	metrics Metrics
	left    bool
	crashed bool
}

// New constructs a node. Repair servers get a BufferAll store trimmed by
// the ACK protocol (budgeted and copy-on-store per Params); plain
// receivers buffer nothing (they never retransmit).
func New(cfg Config) *Node {
	if cfg.Transport == nil || cfg.Sched == nil || cfg.Rng == nil {
		panic("rmtp: Transport, Sched and Rng are required")
	}
	if cfg.Params.MaxTries <= 0 {
		cfg.Params.MaxTries = defaultMaxTries
	}
	v := cfg.View
	n := &Node{
		cfg:      cfg,
		isServer: v.SelfIdx == 0,
		server:   v.RegionMembers[0],
		parent:   topology.NoNode,
		source:   topology.NoNode,
	}
	if len(v.ParentMembers) > 0 {
		n.parent = v.ParentMembers[0]
	}
	if n.isServer {
		n.buffer = core.NewBuffer(core.Config{
			Policy:      core.BufferAll{},
			Sched:       cfg.Sched,
			Rng:         cfg.Rng,
			ByteBudget:  cfg.Params.ByteBudget,
			CopyPayload: cfg.Params.CopyOnStore,
		})
		n.ackFloors = make([]uint64, len(v.RegionMembers)+len(cfg.ChildServers))
		n.ackFloors[0] = forgotten
		n.rescanFloors()
	}
	return n
}

// forgotten is the floor of a slot that tracks nobody: the server's own,
// and a departed acker's. A real floor never reaches it, since sequences
// count up from 1.
const forgotten = math.MaxUint64

// Metrics returns the node's live metrics.
func (n *Node) Metrics() *Metrics { return &n.metrics }

// Buffer returns the repair server's buffer (nil for plain receivers).
func (n *Node) Buffer() *core.Buffer { return n.buffer }

// HasReceived reports whether seq has been delivered to this node.
func (n *Node) HasReceived(seq uint64) bool { return n.received.Has(seq) }

// Left reports whether the node has left the group.
func (n *Node) Left() bool { return n.left }

// Crashed reports whether the node is currently crashed.
func (n *Node) Crashed() bool { return n.crashed }

// Unrecoverable returns how many sequences this node has given up
// recovering: the explicit count of loss that runner.Totals sums. A
// sequence leaves the set only when it arrives. Zero for a healthy run.
func (n *Node) Unrecoverable() int { return len(n.unrecovered) }

// StartAcks begins the periodic ACK-window loop (receivers report to their
// region server; servers report the aggregated floor to their parent).
func (n *Node) StartAcks() {
	if n.ackTimer.Armed() || n.left || n.crashed {
		return
	}
	n.acksStarted = true
	n.armAckLoop()
}

// armAckLoop schedules the first (jittered) tick of the ACK loop; Recover
// reuses it to restart the loop a crash stopped.
func (n *Node) armAckLoop() {
	jitter := time.Duration(n.cfg.Rng.Jitter(float64(ackInterval), 0.2))
	n.ackTimer.Arm(n.cfg.Sched, jitter, (*ackTick)(n))
}

// ackTick is a Node as its ACK timer's Firer: one ACK, and the next tick
// armed.
type ackTick Node

func (t *ackTick) Fire() {
	n := (*Node)(t)
	n.sendAck()
	n.ackTimer.Arm(n.cfg.Sched, ackInterval, t)
}

// sendAck reports this node's floor upward: receivers to their server,
// servers to their parent server (hierarchical aggregation).
func (n *Node) sendAck() {
	floor := n.received.Prefix()
	var to topology.NodeID
	switch {
	case !n.isServer:
		to = n.server
	case n.parent != topology.NoNode:
		// A server acks the minimum of its own prefix and its region's
		// floors: the parent may trim only what this whole subtree has.
		floor = n.aggregateFloor()
		to = n.parent
	default:
		return // root server acks nobody
	}
	n.metrics.AcksSent.Inc()
	n.cfg.Transport.Send(n.cfg.View.Self, to, wire.Message{Type: wire.TypeAck, From: n.cfg.View.Self, TopSeq: floor})
}

// aggregateFloor is the floor this server's subtree has acknowledged: the
// least of its own prefix and its ackers' floors.
func (n *Node) aggregateFloor() uint64 { return min(n.received.Prefix(), n.minFloor) }

// ackSlot returns who's slot in ackFloors, or -1 if who is neither a
// region member nor a child server. A region's members are the contiguous
// range RegionMembers[0]+i (topology.View), so a member's slot is its
// offset; the few child servers are searched.
func (n *Node) ackSlot(who topology.NodeID) int {
	rm := n.cfg.View.RegionMembers
	if i := int(who) - int(rm[0]); i >= 0 && i < len(rm) && rm[i] == who {
		return i
	}
	for j, c := range n.cfg.ChildServers {
		if c == who {
			return len(rm) + j
		}
	}
	return -1
}

// raiseFloor raises slot's floor to f (forgotten, to stop tracking it);
// a lower f is a stale report and changes nothing. The kept minimum moves
// only when the last floor at it rises, and then one walk finds the next.
func (n *Node) raiseFloor(slot int, f uint64) {
	old := n.ackFloors[slot]
	if f <= old {
		return
	}
	n.ackFloors[slot] = f
	if old == n.minFloor {
		if n.atMin--; n.atMin == 0 {
			n.rescanFloors()
		}
	}
}

// rescanFloors recomputes the kept minimum and its count from the floors.
func (n *Node) rescanFloors() {
	n.minFloor, n.atMin = forgotten, 0
	for _, f := range n.ackFloors {
		switch {
		case f < n.minFloor:
			n.minFloor, n.atMin = f, 1
		case f == n.minFloor:
			n.atMin++
		}
	}
}

// ReceivePacket implements netsim.PacketReceiver, so a node registers
// itself on the network (netsim.RegisterReceiver), as an rrmp.Member does.
// The packet is borrowed; receive keeps only the payload slice.
func (n *Node) ReceivePacket(p *netsim.Packet) { n.receive(p.From, &p.Msg) }

// receive dispatches one incoming PDU. Left and crashed nodes ignore all
// input, exactly like rrmp.Member.
func (n *Node) receive(from topology.NodeID, msg *wire.Message) {
	if n.left || n.crashed {
		return
	}
	switch msg.Type {
	case wire.TypeData, wire.TypeRepair:
		n.deliver(msg.ID, msg.Payload)
	case wire.TypeSession:
		n.noteTop(msg.From, msg.TopSeq)
		n.retryStalled()
	case wire.TypeNak:
		n.onNak(from, msg)
	case wire.TypeAck:
		n.onAck(from, msg)
	default:
		// Other PDUs belong to RRMP; the baseline ignores them.
	}
}

// deliver records a message, serves waiters (servers), and advances gap
// detection. A duplicate can still complete a server-side refetch of a
// pressure-displaced entry: the payload is re-stored and recorded waiters
// are served from the in-hand bytes.
func (n *Node) deliver(id wire.MessageID, payload []byte) {
	if n.source == topology.NoNode {
		n.source = id.Source
	}
	if n.received.Has(id.Seq) {
		n.metrics.Duplicates.Inc()
		if n.isServer && id.Seq > n.trimmed {
			if st, ok := n.naks[id.Seq]; ok && st.refetch {
				delete(n.naks, id.Seq)
			}
			if ws := n.waiters[id.Seq]; len(ws) > 0 {
				n.buffer.Store(id, payload)
				delete(n.waiters, id.Seq)
				for _, w := range ws {
					n.sendRepair(w, id, payload)
				}
			}
		}
		return
	}
	n.received.Mark(id.Seq)
	n.metrics.Delivered.Inc()
	if st, ok := n.naks[id.Seq]; ok {
		delete(n.naks, id.Seq)
		if !st.refetch {
			n.metrics.RecoveryLatency.AddDuration(n.cfg.Sched.Now() - st.detectedAt)
		}
	}
	// A sequence given up on can still arrive — a very late repair, or a
	// session-driven retry that finally reached a recovered server. It is
	// then no longer lost.
	delete(n.unrecovered, id.Seq)
	if n.isServer && id.Seq > n.trimmed {
		n.buffer.Store(id, payload)
		if ws := n.waiters[id.Seq]; len(ws) > 0 {
			delete(n.waiters, id.Seq)
			for _, w := range ws {
				n.sendRepair(w, id, payload)
			}
		}
	}
	n.noteTop(id.Source, id.Seq)
}

// noteTop advances loss detection to top and NAKs every gap.
func (n *Node) noteTop(src topology.NodeID, top uint64) {
	if n.source == topology.NoNode {
		n.source = src
	}
	if top <= n.maxSeen {
		return
	}
	for seq := n.maxSeen + 1; seq <= top; seq++ {
		if !n.received.Has(seq) {
			n.startNak(seq)
		}
	}
	n.maxSeen = top
}

// retryStalled restarts the NAK loop for every sequence this node gave up
// on (real RMTP receivers NAK for as long as the session lasts; the retry
// budget only bounds one episode). The sequence stays in the unrecovered
// set until it actually arrives, so accounting never flickers: a missing
// message that has exhausted at least one retry budget is always visible
// in Unrecoverable(). Sequences are walked in ascending order so
// identically seeded runs schedule identical retries.
func (n *Node) retryStalled() {
	if len(n.unrecovered) == 0 {
		return
	}
	var seqs []uint64
	for seq := range n.unrecovered {
		if _, running := n.naks[seq]; !running && !n.received.Has(seq) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		n.startNak(seq)
	}
}

// startNak begins the retry loop for one missing sequence.
func (n *Node) startNak(seq uint64) {
	if _, ok := n.naks[seq]; ok || n.received.Has(seq) {
		return
	}
	n.startLoop(seq, false)
}

// startRefetch begins a server-side NAK loop toward the parent server for
// a message this server received but no longer buffers (displaced under
// Params.ByteBudget) while receivers still wait for it. The root has no
// parent to ask; its requesters' own retry budgets surface the loss.
func (n *Node) startRefetch(seq uint64) {
	if n.parent == topology.NoNode {
		return
	}
	if _, ok := n.naks[seq]; ok {
		return
	}
	n.startLoop(seq, true)
}

// startLoop registers a retry loop for seq and makes its first attempt.
func (n *Node) startLoop(seq uint64, refetch bool) {
	st := &nakState{n: n, seq: seq, detectedAt: n.cfg.Sched.Now(), refetch: refetch}
	if n.naks == nil {
		n.naks = make(map[uint64]*nakState)
	}
	n.naks[seq] = st
	st.Fire()
}

// Fire makes the loop's next attempt: a NAK and the retry re-armed, or the
// loop's end.
func (st *nakState) Fire() {
	n, seq := st.n, st.seq
	if n.naks[seq] != st || n.left || n.crashed {
		return
	}
	if st.refetch {
		if len(n.waiters[seq]) == 0 {
			delete(n.naks, seq)
			return
		}
	} else if n.received.Has(seq) {
		return
	}
	var to topology.NodeID
	var rtt time.Duration
	switch {
	case !n.isServer:
		to, rtt = n.server, nakRTT
	case n.parent != topology.NoNode:
		to, rtt = n.parent, parentRTT
	default:
		// Root server missing a message: with the sender as root there is
		// nobody to ask; give up (the sender cannot lose its own data).
		delete(n.naks, seq)
		n.metrics.GiveUps.Inc()
		n.markUnrecoverable(seq)
		return
	}
	if st.tries >= n.cfg.Params.MaxTries {
		n.metrics.GiveUps.Inc()
		delete(n.naks, seq)
		if !st.refetch {
			n.markUnrecoverable(seq)
		}
		return
	}
	st.tries++
	n.metrics.NaksSent.Inc()
	n.cfg.Transport.Send(n.cfg.View.Self, to, wire.Message{
		Type: wire.TypeNak,
		From: n.cfg.View.Self,
		ID:   wire.MessageID{Source: n.source, Seq: seq},
	})
	st.timer.Arm(n.cfg.Sched, rtt, st)
}

// markUnrecoverable records an exhausted recovery in the unrecovered set;
// delivery clears it.
func (n *Node) markUnrecoverable(seq uint64) {
	if n.received.Has(seq) {
		return
	}
	if n.unrecovered == nil {
		n.unrecovered = make(map[uint64]bool)
	}
	n.unrecovered[seq] = true
}

// onNak answers from the buffer or records a waiter and escalates.
func (n *Node) onNak(from topology.NodeID, msg *wire.Message) {
	n.metrics.NaksRecv.Inc()
	if !n.isServer {
		return // receivers never retransmit in a tree protocol
	}
	seq := msg.ID.Seq
	if e, ok := n.buffer.Get(msg.ID); ok {
		// The request is buffer feedback too: a wanted entry moves to the
		// back of the pressure-eviction order, like rrmp's OnRequest.
		n.buffer.OnRequest(msg.ID)
		n.sendRepair(from, msg.ID, e.Payload)
		return
	}
	if seq <= n.trimmed {
		// Acked by the whole subtree and trimmed: the requester acked it
		// earlier (or is a stale duplicate NAK); nothing to do.
		return
	}
	// Not buffered and below no ACK floor: remember the requester and
	// escalate upward — a plain NAK loop if this server never received
	// the message, a refetch loop if it was displaced under the budget.
	// The escalation runs even for an already-recorded waiter: its retry
	// is the signal that re-arms a loop that exhausted its budget or died
	// with a crash while the waiter record survived (start* are no-ops
	// while a loop is in flight).
	recorded := false
	for _, w := range n.waiters[seq] {
		if w == from {
			recorded = true
			break
		}
	}
	if !recorded {
		if n.waiters == nil {
			n.waiters = make(map[uint64][]topology.NodeID)
		}
		n.waiters[seq] = append(n.waiters[seq], from)
	}
	if n.received.Has(seq) {
		n.startRefetch(seq)
		return
	}
	n.noteTop(msg.ID.Source, seq)
	n.startNak(seq)
}

func (n *Node) sendRepair(to topology.NodeID, id wire.MessageID, payload []byte) {
	n.metrics.RepairsSent.Inc()
	n.cfg.Transport.Send(n.cfg.View.Self, to, wire.Message{Type: wire.TypeRepair, From: n.cfg.View.Self, ID: id, Payload: payload})
}

// onAck merges a floor report and trims the buffer up to the region-wide
// minimum.
func (n *Node) onAck(from topology.NodeID, msg *wire.Message) {
	n.metrics.AcksRecv.Inc()
	if !n.isServer {
		return
	}
	slot := n.ackSlot(from)
	if slot < 0 || n.ackFloors[slot] == forgotten {
		return // not one of ours
	}
	n.raiseFloor(slot, msg.TopSeq)
	n.trim()
}

// trim discards buffered messages fully acknowledged by the region and all
// child subtrees.
func (n *Node) trim() {
	floor := n.aggregateFloor()
	for seq := n.trimmed + 1; seq <= floor; seq++ {
		n.buffer.Remove(wire.MessageID{Source: n.source, Seq: seq}, core.EvictStable)
		n.trimmed = seq
	}
}

// ForgetAcker stops tracking who's ACK floor: the member departed
// gracefully and its (frozen) floor must not block trimming forever. The
// trim itself is deferred while the server is crashed — a dead server does
// no buffer work; the next ACK after recovery applies the new floor.
func (n *Node) ForgetAcker(who topology.NodeID) {
	if !n.isServer || n.left {
		return
	}
	slot := n.ackSlot(who)
	if slot < 0 || n.ackFloors[slot] == forgotten {
		return
	}
	n.raiseFloor(slot, forgotten)
	if !n.crashed {
		n.trim()
	}
}

// stopProtocolTimers halts the ACK loop (without clearing acksStarted) and
// abandons every NAK loop; each pending retry then fails the nakState
// identity check when it fires (see nakState.timer).
func (n *Node) stopProtocolTimers() {
	n.ackTimer.Stop()
	n.naks = nil
}

// Leave departs the group cleanly: all timers stop and input is ignored
// from now on. RMTP has no buffer-handoff or server-migration protocol —
// the harness (runner.TreeCluster.Leave) deregisters the leaver's ACK
// floor at its server, but a departing repair server simply orphans its
// region, exactly like a crashed one that never recovers. That asymmetry
// with RRMP's §3.2 handoff is part of what the protocol comparison
// measures. A crashed node cannot leave; Leave is then a no-op.
func (n *Node) Leave() {
	if n.left || n.crashed {
		return
	}
	n.stopProtocolTimers()
	n.acksStarted = false
	n.left = true
}

// Crash halts the node ungracefully: timers stop, input is ignored until
// Recover, and protocol state (reception set, server buffer, ACK floors)
// survives the outage as a warm image. The caller is responsible for also
// cutting the node's network (netsim.SetDown). A crashed repair server
// orphans its region: receivers NAK a corpse, exhaust their budgets and
// count the loss explicitly.
func (n *Node) Crash() {
	if n.left || n.crashed {
		return
	}
	n.stopProtocolTimers()
	n.crashed = true
}

// Recover resumes a crashed node: the ACK loop restarts if it was running
// before the crash, and every gap in the already-observed sequence range
// gets a fresh NAK budget. Sequences previously given up on stay in the
// unrecovered set until they actually arrive — the retry being in flight
// does not make the loss less real. No-op unless crashed.
func (n *Node) Recover() {
	if n.left || !n.crashed {
		return
	}
	n.crashed = false
	if n.acksStarted {
		n.armAckLoop()
	}
	for seq := n.received.Prefix() + 1; seq <= n.maxSeen; seq++ {
		if !n.received.Has(seq) {
			n.startNak(seq)
		}
	}
}
