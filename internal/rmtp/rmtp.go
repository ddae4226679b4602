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
// their retry budgets and count the loss in Metrics.Unrecoverable — until
// the server recovers, upon which session messages restart the stalled
// NAK loops. Loss is always explicit, never silent: at any instant, every
// sequence a node is missing is either in an active NAK loop or in the
// Unrecovered set (counter ≡ set, the same invariant RRMP pins).
package rmtp

import (
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Send transmits a PDU to a peer; bind it to the network.
type Send func(to topology.NodeID, msg wire.Message)

// Broadcast transmits the initial multicast to the whole group.
type Broadcast func(msg wire.Message)

// Params tunes the baseline protocol.
type Params struct {
	// NakRTT is the retry period for NAKs to the local repair server.
	NakRTT time.Duration
	// ParentRTT is the retry period for server-to-parent-server NAKs.
	ParentRTT time.Duration
	// AckInterval is the period of receiver->server ACK windows.
	AckInterval time.Duration
	// SessionInterval is the sender's session-message period.
	SessionInterval time.Duration
	// MaxTries bounds NAK retries (give-ups are counted, and the missing
	// sequence lands in Metrics.Unrecoverable / Unrecovered() until a
	// late repair or session-driven retry delivers it).
	MaxTries int
	// StartSeq is the reliability baseline, as in rrmp.Params.
	StartSeq uint64
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

// DefaultParams mirrors the RRMP defaults for fair comparison.
func DefaultParams() Params {
	return Params{
		NakRTT:          10*time.Millisecond + 500*time.Microsecond,
		ParentRTT:       100*time.Millisecond + 500*time.Microsecond,
		AckInterval:     100 * time.Millisecond,
		SessionInterval: 100 * time.Millisecond,
		MaxTries:        64,
	}
}

// Config assembles a node.
type Config struct {
	// Self is this node's id.
	Self topology.NodeID
	// Server is the repair server of this node's region. A node whose
	// Server equals Self is the repair server.
	Server topology.NodeID
	// ParentServer is the repair server of the parent region
	// (topology.NoNode at the root).
	ParentServer topology.NodeID
	// RegionMembers lists this region's members including Self; the repair
	// server tracks ACK floors for all of them.
	RegionMembers []topology.NodeID
	// ChildServers lists the repair servers of child regions; their ACKs
	// also gate buffer trimming (a child region may still need repairs).
	ChildServers []topology.NodeID
	// Send, Sched, Rng are required.
	Send  Send
	Sched clock.Scheduler
	Rng   *rng.Source
	// Params tunes timers; zero fields default.
	Params Params
	// OnDeliver observes distinct deliveries.
	OnDeliver func(id wire.MessageID, at time.Duration)
}

// Metrics tallies one node's protocol activity.
type Metrics struct {
	Delivered   stats.Counter
	Duplicates  stats.Counter
	NaksSent    stats.Counter
	NaksRecv    stats.Counter
	RepairsSent stats.Counter
	RepairsRecv stats.Counter
	AcksSent    stats.Counter
	AcksRecv    stats.Counter
	GiveUps     stats.Counter
	// Unrecoverable counts sequences whose NAK loop exhausted MaxTries and
	// that have not arrived since; it is decremented when a late repair
	// delivers the message (counter ≡ Unrecovered() set at all times).
	Unrecoverable stats.Counter
	// RecoveryLatency records detect→deliver times for repaired gaps, in
	// milliseconds (the unit rrmp.Metrics.RecoveryLatency uses).
	RecoveryLatency stats.Histogram
	// BufferingTime records store→evict times at the repair server, in
	// milliseconds.
	BufferingTime stats.Histogram
}

// poster is the scheduler fast path netsim also uses: schedule with no
// cancellation handle. NAK retries ride it so re-arming the loop never
// allocates a timer wrapper; stale fires are rejected by identity checks.
type poster interface {
	Post(d time.Duration, fn func())
}

// nakState is one in-flight NAK retry loop. fire is bound once at creation
// so every retry re-arm reuses the same callback, and detection time is
// kept for the recovery-latency histogram.
type nakState struct {
	tries      int
	detectedAt time.Duration
	// refetch marks a server-side loop re-fetching a pressure-displaced
	// message from the parent to serve recorded waiters; the server has
	// already delivered the message, so refetch loops bypass the received
	// check and never count toward Unrecoverable.
	refetch bool
	fire    func()
}

// Node is one RMTP participant (receiver or repair server). Not safe for
// concurrent use.
type Node struct {
	cfg    Config
	params Params
	post   func(d time.Duration, fn func())

	isServer bool
	buffer   *core.Buffer // repair servers only

	received map[uint64]bool
	maxSeen  uint64
	prefix   uint64
	source   topology.NodeID // learned from the first DATA/SESSION

	naks        map[uint64]*nakState
	waiters     map[uint64][]topology.NodeID
	ackFloors   map[topology.NodeID]uint64
	ackTimer    clock.Handle
	acksStarted bool
	trimmed     uint64 // highest seq removed from the server buffer
	// unrecovered holds sequences this node gave up recovering; cleared on
	// late delivery. See Metrics.Unrecoverable.
	unrecovered map[uint64]bool

	metrics Metrics
	left    bool
	crashed bool
}

// New constructs a node. Repair servers get a BufferAll store trimmed by
// the ACK protocol (budgeted and copy-on-store per Params); plain
// receivers buffer nothing (they never retransmit).
func New(cfg Config) *Node {
	if cfg.Send == nil || cfg.Sched == nil || cfg.Rng == nil {
		panic("rmtp: Send, Sched and Rng are required")
	}
	p := cfg.Params
	d := DefaultParams()
	if p.NakRTT <= 0 {
		p.NakRTT = d.NakRTT
	}
	if p.ParentRTT <= 0 {
		p.ParentRTT = d.ParentRTT
	}
	if p.AckInterval <= 0 {
		p.AckInterval = d.AckInterval
	}
	if p.SessionInterval <= 0 {
		p.SessionInterval = d.SessionInterval
	}
	if p.MaxTries <= 0 {
		p.MaxTries = d.MaxTries
	}
	n := &Node{
		cfg:         cfg,
		params:      p,
		isServer:    cfg.Self == cfg.Server,
		received:    make(map[uint64]bool),
		maxSeen:     p.StartSeq,
		prefix:      p.StartSeq,
		source:      topology.NoNode,
		naks:        make(map[uint64]*nakState),
		waiters:     make(map[uint64][]topology.NodeID),
		ackFloors:   make(map[topology.NodeID]uint64),
		trimmed:     p.StartSeq,
		unrecovered: make(map[uint64]bool),
	}
	if ps, ok := cfg.Sched.(poster); ok {
		n.post = ps.Post
	} else {
		n.post = func(d time.Duration, fn func()) {
			// Like Post's, these events are never cancelled: the handle
			// is dropped.
			var h clock.Handle
			h.Arm(cfg.Sched, d, fn)
		}
	}
	if n.isServer {
		n.buffer = core.NewBuffer(core.Config{
			Policy:      core.BufferAll{},
			Sched:       cfg.Sched,
			Rng:         cfg.Rng,
			ByteBudget:  p.ByteBudget,
			CopyPayload: p.CopyOnStore,
			OnEvict: func(e *core.Entry, _ core.EvictReason) {
				n.metrics.BufferingTime.AddDuration(cfg.Sched.Now() - e.StoredAt)
			},
		})
		for _, m := range cfg.RegionMembers {
			if m != cfg.Self {
				n.ackFloors[m] = p.StartSeq
			}
		}
		for _, c := range cfg.ChildServers {
			n.ackFloors[c] = p.StartSeq
		}
	}
	return n
}

// Metrics returns the node's live metrics.
func (n *Node) Metrics() *Metrics { return &n.metrics }

// Buffer returns the repair server's buffer (nil for plain receivers).
func (n *Node) Buffer() *core.Buffer { return n.buffer }

// HasReceived reports whether seq has been delivered to this node.
func (n *Node) HasReceived(seq uint64) bool { return n.received[seq] }

// Prefix returns the contiguous received prefix.
func (n *Node) Prefix() uint64 { return n.prefix }

// Left reports whether the node has left the group.
func (n *Node) Left() bool { return n.left }

// Crashed reports whether the node is currently crashed.
func (n *Node) Crashed() bool { return n.crashed }

// Unrecovered returns the sequences this node has given up recovering,
// ascending. Empty for a healthy quiesced run; always consistent with
// Metrics.Unrecoverable (counter ≡ set).
func (n *Node) Unrecovered() []uint64 {
	out := make([]uint64, 0, len(n.unrecovered))
	for seq := range n.unrecovered {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

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
	var tick func()
	tick = func() {
		n.sendAck()
		n.ackTimer.Arm(n.cfg.Sched, n.params.AckInterval, tick)
	}
	jitter := time.Duration(n.cfg.Rng.Jitter(float64(n.params.AckInterval), 0.2))
	n.ackTimer.Arm(n.cfg.Sched, jitter, tick)
}

// StopAcks halts the ACK loop.
func (n *Node) StopAcks() {
	n.ackTimer.Stop()
	n.acksStarted = false
}

// sendAck reports this node's floor upward: receivers to their server,
// servers to their parent server (hierarchical aggregation).
func (n *Node) sendAck() {
	floor := n.prefix
	var to topology.NodeID
	switch {
	case !n.isServer:
		to = n.cfg.Server
	case n.cfg.ParentServer != topology.NoNode:
		// A server acks the minimum of its own prefix and its region's
		// floors: the parent may trim only what this whole subtree has.
		floor = n.aggregateFloor()
		to = n.cfg.ParentServer
	default:
		return // root server acks nobody
	}
	n.metrics.AcksSent.Inc()
	n.cfg.Send(to, wire.Message{Type: wire.TypeAck, From: n.cfg.Self, TopSeq: floor})
}

func (n *Node) aggregateFloor() uint64 {
	floor := n.prefix
	for _, f := range n.ackFloors {
		if f < floor {
			floor = f
		}
	}
	return floor
}

// Receive dispatches one incoming PDU. Left and crashed nodes ignore all
// input, exactly like rrmp.Member.
func (n *Node) Receive(from topology.NodeID, msg wire.Message) {
	if n.left || n.crashed {
		return
	}
	switch msg.Type {
	case wire.TypeData, wire.TypeRepair:
		if msg.Type == wire.TypeRepair {
			n.metrics.RepairsRecv.Inc()
		}
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
	if n.received[id.Seq] {
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
	n.received[id.Seq] = true
	n.metrics.Delivered.Inc()
	for n.received[n.prefix+1] {
		n.prefix++
	}
	if st, ok := n.naks[id.Seq]; ok {
		delete(n.naks, id.Seq)
		if !st.refetch {
			n.metrics.RecoveryLatency.AddDuration(n.cfg.Sched.Now() - st.detectedAt)
		}
	}
	// A sequence given up on can still arrive — a very late repair, or a
	// session-driven retry that finally reached a recovered server. It is
	// then no longer lost.
	if n.unrecovered[id.Seq] {
		delete(n.unrecovered, id.Seq)
		n.metrics.Unrecoverable.Add(-1)
	}
	if n.isServer && id.Seq > n.trimmed {
		n.buffer.Store(id, payload)
		if ws := n.waiters[id.Seq]; len(ws) > 0 {
			delete(n.waiters, id.Seq)
			for _, w := range ws {
				n.sendRepair(w, id, payload)
			}
		}
	}
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(id, n.cfg.Sched.Now())
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
		if !n.received[seq] {
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
// in Metrics.Unrecoverable. Sequences are walked in ascending order so
// identically seeded runs schedule identical retries.
func (n *Node) retryStalled() {
	if len(n.unrecovered) == 0 {
		return
	}
	var seqs []uint64
	for seq := range n.unrecovered {
		if _, running := n.naks[seq]; !running && !n.received[seq] {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		n.startNak(seq)
	}
}

// startNak begins the retry loop for one missing sequence.
func (n *Node) startNak(seq uint64) {
	if _, ok := n.naks[seq]; ok || n.received[seq] {
		return
	}
	st := &nakState{detectedAt: n.cfg.Sched.Now()}
	st.fire = func() { n.nakAttempt(seq, st) }
	n.naks[seq] = st
	n.nakAttempt(seq, st)
}

// startRefetch begins a server-side NAK loop toward the parent server for
// a message this server received but no longer buffers (displaced under
// Params.ByteBudget) while receivers still wait for it. The root has no
// parent to ask; its requesters' own retry budgets surface the loss.
func (n *Node) startRefetch(seq uint64) {
	if n.cfg.ParentServer == topology.NoNode {
		return
	}
	if _, ok := n.naks[seq]; ok {
		return
	}
	st := &nakState{detectedAt: n.cfg.Sched.Now(), refetch: true}
	st.fire = func() { n.nakAttempt(seq, st) }
	n.naks[seq] = st
	n.nakAttempt(seq, st)
}

func (n *Node) nakAttempt(seq uint64, st *nakState) {
	if n.naks[seq] != st || n.left || n.crashed {
		return
	}
	if st.refetch {
		if len(n.waiters[seq]) == 0 {
			delete(n.naks, seq)
			return
		}
	} else if n.received[seq] {
		return
	}
	var to topology.NodeID
	var rtt time.Duration
	switch {
	case !n.isServer:
		to, rtt = n.cfg.Server, n.params.NakRTT
	case n.cfg.ParentServer != topology.NoNode:
		to, rtt = n.cfg.ParentServer, n.params.ParentRTT
	default:
		// Root server missing a message: with the sender as root there is
		// nobody to ask; give up (the sender cannot lose its own data).
		delete(n.naks, seq)
		n.metrics.GiveUps.Inc()
		n.markUnrecoverable(seq)
		return
	}
	if st.tries >= n.params.MaxTries {
		n.metrics.GiveUps.Inc()
		delete(n.naks, seq)
		if !st.refetch {
			n.markUnrecoverable(seq)
		}
		return
	}
	st.tries++
	n.metrics.NaksSent.Inc()
	n.cfg.Send(to, wire.Message{
		Type: wire.TypeNak,
		From: n.cfg.Self,
		ID:   wire.MessageID{Source: n.source, Seq: seq},
	})
	// Post, not After: retries are cancelled by deleting the nakState (the
	// identity check above rejects stale fires), so the loop re-arms with
	// zero allocations however many times it retries.
	n.post(rtt, st.fire)
}

// markUnrecoverable records an exhausted recovery exactly once; delivery
// clears it, keeping Metrics.Unrecoverable ≡ the Unrecovered set.
func (n *Node) markUnrecoverable(seq uint64) {
	if n.received[seq] || n.unrecovered[seq] {
		return
	}
	n.unrecovered[seq] = true
	n.metrics.Unrecoverable.Inc()
}

// onNak answers from the buffer or records a waiter and escalates.
func (n *Node) onNak(from topology.NodeID, msg wire.Message) {
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
		n.waiters[seq] = append(n.waiters[seq], from)
	}
	if n.received[seq] {
		n.startRefetch(seq)
		return
	}
	n.noteTop(msg.ID.Source, seq)
	n.startNak(seq)
}

func (n *Node) sendRepair(to topology.NodeID, id wire.MessageID, payload []byte) {
	n.metrics.RepairsSent.Inc()
	n.cfg.Send(to, wire.Message{Type: wire.TypeRepair, From: n.cfg.Self, ID: id, Payload: payload})
}

// onAck merges a floor report and trims the buffer up to the region-wide
// minimum.
func (n *Node) onAck(from topology.NodeID, msg wire.Message) {
	n.metrics.AcksRecv.Inc()
	if !n.isServer {
		return
	}
	if _, tracked := n.ackFloors[from]; !tracked {
		return // not one of ours
	}
	if msg.TopSeq > n.ackFloors[from] {
		n.ackFloors[from] = msg.TopSeq
	}
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
	if _, ok := n.ackFloors[who]; !ok {
		return
	}
	delete(n.ackFloors, who)
	if !n.crashed {
		n.trim()
	}
}

// stopProtocolTimers halts the ACK loop (without clearing acksStarted) and
// abandons every NAK loop. Pending Post-scheduled retries become stale and
// are rejected by the nakState identity check.
func (n *Node) stopProtocolTimers() {
	n.ackTimer.Stop()
	n.naks = make(map[uint64]*nakState)
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
	for seq := n.params.StartSeq + 1; seq <= n.maxSeen; seq++ {
		if !n.received[seq] {
			n.startNak(seq)
		}
	}
}
