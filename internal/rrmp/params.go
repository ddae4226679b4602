package rrmp

import "time"

// SearchMode selects how a member locates a bufferer for a discarded
// message (§3.3).
type SearchMode int

// Search modes.
const (
	// SearchRandomWalk is the paper's adopted design: forward the request
	// to one random member at a time, with RTT retries; non-holders join.
	SearchRandomWalk SearchMode = iota + 1
	// SearchMulticastQuery is the design §3.3 rejects: multicast the query
	// in the region and have holders reply after a back-off proportional
	// to C. When the message is not yet idle everywhere, far more than C
	// members hold it and replies implode (ablation A3 measures this).
	SearchMulticastQuery
)

// Params are the protocol's tunables. The zero value is not usable; start
// from DefaultParams (the paper's §4 settings) and override fields.
type Params struct {
	// IntraRTT is the member's estimate of the round-trip time to a peer in
	// its own region, used for local-recovery and search retry timers
	// (paper: 10 ms).
	IntraRTT time.Duration
	// ParentRTT is the estimated round-trip time to a member of the parent
	// region, used for remote-recovery retry timers.
	ParentRTT time.Duration
	// IdleThreshold is T, the quiet period after which a buffered message
	// is considered idle (paper §3.1: a small multiple of the maximum
	// intra-region RTT; 4× in the evaluation).
	IdleThreshold time.Duration
	// C is the expected number of long-term bufferers per region (§3.2).
	C float64
	// Lambda is the expected number of remote requests sent per region per
	// retry round when an entire region misses a message (§2.2).
	Lambda float64
	// LongTermTTL bounds unused long-term retention ("eventually even a
	// long-term bufferer may decide to discard", §3.2). Zero means forever.
	LongTermTTL time.Duration
	// RepairBackoffMax, when positive, delays the regional multicast of a
	// remotely received repair by a uniform time in (0, RepairBackoffMax]
	// so that concurrent receivers can suppress duplicates ([14]'s
	// randomized back-off). Zero multicasts immediately.
	RepairBackoffMax time.Duration
	// SessionInterval is the sender's session-message period; session
	// messages let receivers detect the loss of the last messages in a
	// burst (§2.1).
	SessionInterval time.Duration
	// MaxLocalTries, MaxRemoteTries and MaxSearchTries bound retries so a
	// simulation with an unrecoverable loss terminates; the paper assumes
	// unbounded retries. Exhaustion is counted in Metrics, never silent.
	MaxLocalTries  int
	MaxRemoteTries int
	MaxSearchTries int
	// SearchMode selects random-walk search (the paper's design, default)
	// or the rejected multicast-query alternative.
	SearchMode SearchMode
	// ByteBudget caps each member's buffer at this many payload bytes
	// (core.Config.ByteBudget). Stores past the cap pressure-evict older
	// entries — short-term longest-idle first, then oldest long-term
	// copies — and a pressure-evicted message behaves like any other
	// miss: recoverable via local repair or the §3.3 search, and listed
	// in Member.Unrecovered when every path fails, never silently lost.
	// Zero means unlimited, the paper's unconstrained model.
	ByteBudget int
	// CopyOnStore makes each member's buffer keep a private copy of every
	// payload instead of aliasing the received slice (core.Config.
	// CopyPayload). The simulator hands all members the sender's one
	// payload slice, so this is the knob for workloads that reuse or
	// mutate publish buffers after the fact.
	CopyOnStore bool
	// FDEnabled attaches the region-scoped gossip failure detector
	// (internal/gossipfd, paper reference [13]) to the member. Suspected
	// peers are skipped when picking local-recovery, search and handoff
	// targets, so crashed bufferers do not soak up retries; recovery then
	// re-routes via the §3.3 search path. Graceful-leave-only experiments
	// leave this off and behave exactly as before. The detector runs on
	// gossipfd's default timing (50 ms gossip, suspect after 8 intervals,
	// cleanup after 2 fail timeouts).
	FDEnabled bool
}

// Default parameter values (the paper's evaluation settings where given).
const (
	DefaultIntraRTT        = 10 * time.Millisecond
	DefaultParentRTT       = 100 * time.Millisecond
	DefaultC               = 6.0
	DefaultLambda          = 1.0
	DefaultLongTermTTL     = 60 * time.Second
	DefaultSessionInterval = 100 * time.Millisecond
	DefaultMaxTries        = 64
)

// DefaultParams returns the paper's defaults: intra-region RTT 10 ms, idle
// threshold 4×RTT = 40 ms, C = 6, λ = 1.
func DefaultParams() Params {
	return Params{
		IntraRTT:        DefaultIntraRTT,
		ParentRTT:       DefaultParentRTT,
		IdleThreshold:   4 * DefaultIntraRTT,
		C:               DefaultC,
		Lambda:          DefaultLambda,
		LongTermTTL:     DefaultLongTermTTL,
		SessionInterval: DefaultSessionInterval,
		MaxLocalTries:   DefaultMaxTries,
		MaxRemoteTries:  DefaultMaxTries,
		MaxSearchTries:  DefaultMaxTries,
	}
}

// withDefaults fills unset fields from DefaultParams so that partially
// specified Params behave sensibly.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.IntraRTT <= 0 {
		p.IntraRTT = d.IntraRTT
	}
	if p.ParentRTT <= 0 {
		p.ParentRTT = d.ParentRTT
	}
	if p.IdleThreshold <= 0 {
		p.IdleThreshold = 4 * p.IntraRTT
	}
	if p.Lambda <= 0 {
		p.Lambda = d.Lambda
	}
	if p.SessionInterval <= 0 {
		p.SessionInterval = d.SessionInterval
	}
	if p.SearchMode == 0 {
		p.SearchMode = SearchRandomWalk
	}
	if p.MaxLocalTries <= 0 {
		p.MaxLocalTries = d.MaxLocalTries
	}
	if p.MaxRemoteTries <= 0 {
		p.MaxRemoteTries = d.MaxRemoteTries
	}
	if p.MaxSearchTries <= 0 {
		p.MaxSearchTries = d.MaxSearchTries
	}
	// C=0 and LongTermTTL=0 are meaningful values (no long-term election,
	// no TTL), so they are left alone; a negative C means zero. Lambda has
	// no such value: any Lambda <= 0 took the default above.
	if p.C < 0 {
		p.C = 0
	}
	return p
}

// retryGrace is added to every RTT-based retry timer so that a reply
// arriving at exactly the estimated RTT wins the race against the
// retransmission timer (real deployments get this slack from RTT
// estimation conservatism).
func (p Params) retryGrace() time.Duration { return p.IntraRTT / 20 }

// queryBackoffMax is the reply back-off window for SearchMulticastQuery:
// C × IntraRTT (C at least 1), the "proportional to C" rule §3.3 shows to
// be inadequate.
func (p Params) queryBackoffMax() time.Duration {
	return time.Duration(max(p.C, 1) * float64(p.IntraRTT))
}
