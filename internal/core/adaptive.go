package core

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// RngBinder is implemented by policies that own a private randomness
// stream instead of drawing from the buffer's shared election stream.
// rrmp.Member.Init binds cfg.Rng.Split(policyStreamLabel) to any policy
// implementing it, so a demand-aware policy's draws never perturb the
// draws legacy policies make from the buffer stream.
type RngBinder interface {
	BindRng(r *rng.Source)
}

// AdaptiveConfig parameterizes AdaptiveHold.
type AdaptiveConfig struct {
	// TMin and TMax bound the per-source hold-time: a source with no
	// observed request demand holds for TMin, one at or above Target holds
	// for TMax.
	TMin, TMax time.Duration
	// Target is the demand — smoothed retransmission requests per stored
	// message — at which the hold saturates at TMax.
	Target float64
	// Alpha is the EWMA smoothing weight in (0, 1]; zero selects the
	// default 0.1. The tracked demand for a source converges to its
	// steady-state requests-per-message rate regardless of Alpha; Alpha
	// only sets how fast bursts are absorbed.
	Alpha float64
	// C is the expected number of long-term bufferers per region, as in
	// TwoPhase.
	C float64
	// N is the region size used to derive the election probability C/N.
	N int
	// TTL bounds unused long-term retention; zero means forever.
	TTL time.Duration
}

// DefaultAdaptiveAlpha is the EWMA smoothing weight used when
// AdaptiveConfig.Alpha is zero.
const DefaultAdaptiveAlpha = 0.1

// AdaptiveHold is the first demand-aware policy (the paper's §5 gesture:
// adapt buffer parameters to observed recovery demand). It tracks an EWMA
// of retransmission-request demand per source — each store decays the
// source's demand by (1−α), each request adds α, so the tracked value
// converges to the source's requests-per-message rate — and scales the
// short-term hold linearly from TMin (quiet source) to TMax (demand at or
// above Target). Idle entries elect long-term with probability C/N, like
// TwoPhase, drawing from the privately bound policy stream when present.
//
// Under byte pressure it overrides the displacement order: entries from
// the lowest-demand source go first (their messages are the cheapest to
// lose), falling back to the historic order between equal-demand sources.
type AdaptiveHold struct {
	PolicyBase

	cfg    AdaptiveConfig
	demand map[topology.NodeID]float64
	rng    *rng.Source
}

// NewAdaptiveHold constructs the demand-aware policy. It panics on
// non-positive TMin, TMax < TMin, non-positive Target or N, or Alpha
// outside (0, 1] — programming errors, not runtime conditions.
func NewAdaptiveHold(cfg AdaptiveConfig) *AdaptiveHold {
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAdaptiveAlpha
	}
	if cfg.TMin <= 0 {
		panic(fmt.Sprintf("core: AdaptiveHold TMin %v must be positive", cfg.TMin))
	}
	if cfg.TMax < cfg.TMin {
		panic(fmt.Sprintf("core: AdaptiveHold TMax %v must be >= TMin %v", cfg.TMax, cfg.TMin))
	}
	if cfg.Target <= 0 {
		panic(fmt.Sprintf("core: AdaptiveHold Target %v must be positive", cfg.Target))
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		panic(fmt.Sprintf("core: AdaptiveHold Alpha %v must be in (0, 1]", cfg.Alpha))
	}
	if cfg.N <= 0 {
		panic(fmt.Sprintf("core: AdaptiveHold region size %d must be positive", cfg.N))
	}
	return &AdaptiveHold{cfg: cfg, demand: make(map[topology.NodeID]float64)}
}

// Name implements Policy.
func (p *AdaptiveHold) Name() string { return "adaptive" }

// BindRng implements RngBinder: subsequent elections draw from r instead
// of the rng passed to OnIdle.
func (p *AdaptiveHold) BindRng(r *rng.Source) { p.rng = r }

// Hold implements Policy: TMin + (TMax−TMin)·min(1, demand/Target) for the
// message's source, re-armed by request feedback like TwoPhase.
func (p *AdaptiveHold) Hold(id wire.MessageID) (time.Duration, bool) {
	frac := p.demand[id.Source] / p.cfg.Target
	if frac > 1 {
		frac = 1
	}
	return p.cfg.TMin + time.Duration(frac*float64(p.cfg.TMax-p.cfg.TMin)), true
}

// ObserveStore implements Policy: decay the source's demand. Paired with
// the per-request increment this makes the tracked value an EWMA of
// requests per message.
func (p *AdaptiveHold) ObserveStore(id wire.MessageID, _ time.Duration) {
	p.demand[id.Source] *= 1 - p.cfg.Alpha
}

// ObserveRequest implements Policy: bump the source's demand.
func (p *AdaptiveHold) ObserveRequest(id wire.MessageID, _ time.Duration) {
	p.demand[id.Source] += p.cfg.Alpha
}

// DisplacedBefore implements Policy: displace entries from the
// lowest-demand source first; between equal-demand sources fall back to
// the historic order, which keeps the relation a strict total order.
func (p *AdaptiveHold) DisplacedBefore(a, c *Entry) bool {
	da, dc := p.demand[a.ID.Source], p.demand[c.ID.Source]
	if da != dc {
		return da < dc
	}
	return DefaultDisplacedBefore(a, c)
}

// electionProbability is C/N clamped to [0, 1], as in TwoPhase.
func (p *AdaptiveHold) electionProbability() float64 {
	pr := p.cfg.C / float64(p.cfg.N)
	switch {
	case pr < 0:
		return 0
	case pr > 1:
		return 1
	default:
		return pr
	}
}

// OnIdle implements Policy: elect long-term with probability C/N, drawing
// from the bound policy stream when one is present so adaptive draws never
// share a stream with other consumers.
func (p *AdaptiveHold) OnIdle(_ wire.MessageID, r *rng.Source) Decision {
	if p.rng != nil {
		r = p.rng
	}
	if r != nil && r.Bernoulli(p.electionProbability()) {
		return PromoteLongTerm
	}
	return Discard
}

// LongTermTTL implements Policy.
func (p *AdaptiveHold) LongTermTTL() time.Duration { return p.cfg.TTL }

var _ Policy = (*AdaptiveHold)(nil)
var _ RngBinder = (*AdaptiveHold)(nil)
