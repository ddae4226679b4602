// Package stability implements the message stability detection baseline the
// paper compares against (§1, §3.1; in the style of Guo & Rhee's detection
// protocols, reference [8]).
//
// Under this scheme a member buffers every message (core.BufferAll) and
// periodically gossips a message-history digest — here the contiguous
// received prefix per source — to its region. A sequence number is declared
// stable once every region member's digest covers it; only then is the
// message discarded. There is no failure detector here, so a member that
// stops gossiping (a crash, a straggler) blocks stability for the region.
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

// interval is the digest gossip period.
const interval = 100 * time.Millisecond

// Send transmits a digest PDU to a peer; bind it to the network.
type Send func(to topology.NodeID, msg wire.Message)

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
	// OnStable fires once per newly stable sequence number, in order.
	OnStable func(seq uint64)
}

// Detector tracks region-wide stability of one source's stream. Not safe
// for concurrent use.
type Detector struct {
	cfg     Config
	peers   []topology.NodeID // region peers (excluding self)
	floors  map[topology.NodeID]uint64
	stable  uint64       // highest sequence declared stable so far
	ticker  clock.Handle // fires (*tickTimer)(d)
	running bool
}

// New constructs a detector (stopped; call Start).
func New(cfg Config) *Detector {
	if cfg.Sched == nil || cfg.Rng == nil || cfg.Send == nil || cfg.LocalPrefix == nil {
		panic("stability: Sched, Rng, Send and LocalPrefix are required")
	}
	peers := cfg.View.Peers()
	return &Detector{
		cfg:    cfg,
		peers:  peers,
		floors: make(map[topology.NodeID]uint64, len(peers)),
	}
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
	delay := time.Duration(d.cfg.Rng.Jitter(float64(interval), 0.1))
	d.ticker.Arm(d.cfg.Sched, delay, (*tickTimer)(d))
}

// tickTimer is a Detector as its ticker's Firer: one digest round, and
// the next one scheduled while the detector runs.
type tickTimer Detector

func (t *tickTimer) Fire() {
	d := (*Detector)(t)
	d.tick()
	if d.running {
		d.scheduleTick()
	}
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
// all peers.
func (d *Detector) evaluate() {
	floor := d.cfg.LocalPrefix()
	for _, p := range d.peers {
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
