// Package stability implements the message stability detection baseline the
// paper compares against (§1, §3.1; in the style of Guo & Rhee's detection
// protocols, reference [8]).
//
// Under this scheme a member buffers every message (core.BufferAll) and
// periodically gossips a message-history digest — here the contiguous
// received prefix per source — to its region. A sequence number is declared
// stable once every live region member's digest covers it; only then is the
// message discarded. Liveness comes from a failure detector (gossipfd), so
// a crashed member cannot block stability forever.
//
// The paper's point, which ablation A6 quantifies, is that this buys
// certainty at the price of periodic digest traffic, whereas RRMP's
// feedback-based scheme derives the same information for free from the
// retransmission requests it already receives.
package stability

import (
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Send transmits a digest PDU to a peer; bind it to the network.
type Send func(to topology.NodeID, msg wire.Message)

// Liveness reports whether a region member should be counted in the
// stability quorum. Bind it to a failure detector; nil counts everyone.
type Liveness func(n topology.NodeID) bool

// Config assembles a detector for one (member, source) pair.
type Config struct {
	// View is the member's region view.
	View topology.View
	// Source is the sender whose stream is tracked.
	Source topology.NodeID
	// Sched supplies time and timers; required.
	Sched clock.Scheduler
	// Rng jitters the gossip period; required.
	Rng *rng.Source
	// Send transmits history digests; required.
	Send Send
	// LocalPrefix returns this member's own contiguous received prefix
	// for Source; required (bind to rrmp.Member.Prefix).
	LocalPrefix func() uint64
	// Alive filters quorum membership; nil counts all region members.
	Alive Liveness
	// Interval is the digest gossip period (default 100 ms).
	Interval time.Duration
	// OnStable fires once per newly stable sequence number, in order.
	OnStable func(seq uint64)
}

// Detector tracks region-wide stability of one source's stream. Not safe
// for concurrent use.
type Detector struct {
	cfg     Config
	peers   []topology.NodeID // region peers (excluding self)
	floors  map[topology.NodeID]uint64
	stable  uint64 // highest sequence declared stable so far
	onTick  func() // the timer callback, bound once
	ticker  clock.Handle
	running bool

	// DigestsSent counts outgoing history PDUs (the A6 overhead metric).
	DigestsSent int64
}

// New constructs a detector (stopped; call Start).
func New(cfg Config) *Detector {
	if cfg.Sched == nil || cfg.Rng == nil || cfg.Send == nil || cfg.LocalPrefix == nil {
		panic("stability: Sched, Rng, Send and LocalPrefix are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	peers := cfg.View.Peers()
	d := &Detector{
		cfg:    cfg,
		peers:  peers,
		floors: make(map[topology.NodeID]uint64, len(peers)),
	}
	d.onTick = func() {
		d.tick()
		if d.running {
			d.scheduleTick()
		}
	}
	return d
}

// Start begins periodic digest gossip. Idempotent.
func (d *Detector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.scheduleTick()
}

// Stop halts gossip. Idempotent.
func (d *Detector) Stop() {
	if !d.running {
		return
	}
	d.running = false
	d.ticker.Stop()
}

func (d *Detector) scheduleTick() {
	delay := time.Duration(d.cfg.Rng.Jitter(float64(d.cfg.Interval), 0.1))
	d.ticker.Arm(d.cfg.Sched, delay, d.onTick)
}

// tick multicasts this member's digest to the region and re-evaluates
// stability (the local prefix may have advanced).
func (d *Detector) tick() {
	prefix := d.cfg.LocalPrefix()
	msg := wire.Message{
		Type:   wire.TypeHistory,
		From:   d.cfg.View.Self,
		ID:     wire.MessageID{Source: d.cfg.Source},
		TopSeq: prefix,
	}
	for _, p := range d.peers {
		d.cfg.Send(p, msg)
		d.DigestsSent++
	}
	d.evaluate()
}

// Receive merges an incoming digest (wire.TypeHistory).
func (d *Detector) Receive(msg wire.Message) {
	if msg.Type != wire.TypeHistory || msg.ID.Source != d.cfg.Source {
		return
	}
	if msg.TopSeq > d.floors[msg.From] {
		d.floors[msg.From] = msg.TopSeq
	}
	d.evaluate()
}

// evaluate advances the stability floor: the minimum digest over self and
// all live peers.
func (d *Detector) evaluate() {
	floor := d.cfg.LocalPrefix()
	for _, p := range d.peers {
		if d.cfg.Alive != nil && !d.cfg.Alive(p) {
			continue
		}
		if f := d.floors[p]; f < floor {
			floor = f
		}
	}
	for d.stable < floor {
		d.stable++
		if d.cfg.OnStable != nil {
			d.cfg.OnStable(d.stable)
		}
	}
}

// StableFloor returns the highest sequence number declared stable.
func (d *Detector) StableFloor() uint64 { return d.stable }
