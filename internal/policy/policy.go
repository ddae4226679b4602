// Package policy is the central registry of buffer-retention policies:
// one spec grammar, one canonical name per policy, and one builder shared
// by the runner, the repro facade and the CLIs. It replaces the ad-hoc
// string switches those layers used to duplicate.
//
// A spec is `kind` or `kind:key=val,key=val`, e.g.
//
//	two-phase
//	fixed:hold=200ms
//	adaptive:tmin=20ms,tmax=200ms,target=2
//
// Historic aliases ("fixed-hold", "buffer-all", "hash-elect", and the
// empty string for the paper's default) canonicalize to the registry
// kinds, so committed sweep-cell names never change.
package policy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// Canonical policy kinds — the tokens sweep-cell names use.
const (
	KindTwoPhase = "two-phase"
	KindFixed    = "fixed"
	KindAll      = "all"
	KindHash     = "hash"
	KindAdaptive = "adaptive"
)

// Spec parameter defaults.
const (
	// DefaultFixedHold is the fixed policy's retention when neither the
	// spec nor the environment supplies one (the sweep axis default).
	DefaultFixedHold = 500 * time.Millisecond
	// DefaultTMin / DefaultTMax bound the adaptive hold-time by default.
	DefaultTMin = 20 * time.Millisecond
	DefaultTMax = 200 * time.Millisecond
	// DefaultTarget is the adaptive demand (requests per message) that
	// saturates the hold at TMax.
	DefaultTarget = 2.0
)

// aliases maps every accepted token — canonical kind, historic alias, or
// the empty default — to its canonical kind.
var aliases = map[string]string{
	"":           KindTwoPhase,
	KindTwoPhase: KindTwoPhase,
	KindFixed:    KindFixed,
	"fixed-hold": KindFixed,
	KindAll:      KindAll,
	"buffer-all": KindAll,
	KindHash:     KindHash,
	"hash-elect": KindHash,
	KindAdaptive: KindAdaptive,
}

// Canonical maps any accepted policy token — bare kind, historic alias,
// or parameterized spec — to its canonical form: the kind is rewritten
// ("fixed-hold" → "fixed"), parameters are kept verbatim (they are part
// of cell identity). Unknown tokens pass through unchanged, so non-policy
// axis values (the rmtp "server" placeholder) survive canonicalization.
func Canonical(token string) string {
	kind, params, hasParams := strings.Cut(token, ":")
	k, ok := aliases[kind]
	if !ok {
		return token
	}
	if hasParams {
		return k + ":" + params
	}
	return k
}

// KnownKinds returns the canonical kinds in roster order.
func KnownKinds() []string {
	kinds := make([]string, 0, len(roster))
	for _, info := range roster {
		kinds = append(kinds, info.Kind)
	}
	return kinds
}

// UnknownKindError reports a policy token the registry does not know. It
// lists the known kinds so a typo in a sweep spec fails with the menu in
// hand instead of deep inside the runner.
type UnknownKindError struct {
	Kind  string
	Known []string
}

// Error implements error.
func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("policy: unknown policy %q (known: %s)",
		e.Kind, strings.Join(e.Known, ", "))
}

// Spec is a parsed policy specification: a canonical kind plus any
// parameters the spec carried. Zero-valued parameters mean "use the
// default" at Build time.
type Spec struct {
	Kind string
	// Hold overrides the fixed policy's retention.
	Hold time.Duration
	// TMin, TMax, Target and Alpha parameterize the adaptive policy.
	TMin, TMax time.Duration
	Target     float64
	Alpha      float64
}

// Parse parses a policy spec (`kind` or `kind:key=val,...`). The kind may
// be any accepted alias; unknown kinds return *UnknownKindError, unknown
// or malformed parameters a plain error.
func Parse(s string) (Spec, error) {
	kindTok, params, hasParams := strings.Cut(s, ":")
	kindTok = strings.TrimSpace(kindTok)
	kind, ok := aliases[kindTok]
	if !ok {
		return Spec{}, &UnknownKindError{Kind: kindTok, Known: KnownKinds()}
	}
	sp := Spec{Kind: kind}
	if !hasParams {
		return sp, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("policy: bad parameter %q in spec %q (want key=val)", kv, s)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := sp.setParam(key, val); err != nil {
			return Spec{}, err
		}
	}
	if sp.TMin > 0 && sp.TMax > 0 && sp.TMax < sp.TMin {
		return Spec{}, fmt.Errorf("policy: adaptive tmax %v must be >= tmin %v", sp.TMax, sp.TMin)
	}
	return sp, nil
}

// setParam applies one key=val pair, enforcing per-kind parameter menus.
func (sp *Spec) setParam(key, val string) error {
	dur := func(dst *time.Duration) error {
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("policy: %s parameter %s=%q: want a positive duration", sp.Kind, key, val)
		}
		*dst = d
		return nil
	}
	num := func(dst *float64, max float64) error {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) || (max > 0 && f > max) {
			if max > 0 {
				return fmt.Errorf("policy: %s parameter %s=%q: want a number in (0, %v]", sp.Kind, key, val, max)
			}
			return fmt.Errorf("policy: %s parameter %s=%q: want a positive number", sp.Kind, key, val)
		}
		*dst = f
		return nil
	}
	switch {
	case sp.Kind == KindFixed && key == "hold":
		return dur(&sp.Hold)
	case sp.Kind == KindAdaptive && key == "tmin":
		return dur(&sp.TMin)
	case sp.Kind == KindAdaptive && key == "tmax":
		return dur(&sp.TMax)
	case sp.Kind == KindAdaptive && key == "target":
		return num(&sp.Target, 0)
	case sp.Kind == KindAdaptive && key == "alpha":
		return num(&sp.Alpha, 1)
	default:
		return fmt.Errorf("policy: policy %q does not take parameter %q", sp.Kind, key)
	}
}

// Env supplies the member-side context a Spec needs to become a concrete
// core.Policy: protocol parameters plus the member's region view.
type Env struct {
	// Self is the member owning the buffer (hash kind only).
	Self topology.NodeID
	// Region is the member's region membership including Self (hash kind
	// only; other kinds may leave it nil).
	Region []topology.NodeID
	// RegionSize is the region size (peers + self) the election
	// probability C/RegionSize derives from.
	RegionSize int
	// IdleThreshold, C and LongTermTTL are the protocol parameters the
	// feedback-based kinds consume.
	IdleThreshold time.Duration
	C             float64
	LongTermTTL   time.Duration
	// FixedHold is the retention the fixed kind uses when the spec does
	// not carry an explicit hold; zero falls back to DefaultFixedHold.
	FixedHold time.Duration
}

// Build constructs the policy a Spec describes in the given environment.
// It panics on a Spec whose Kind did not come from Parse.
func (sp Spec) Build(env Env) core.Policy {
	switch sp.Kind {
	case KindTwoPhase, "":
		return core.NewTwoPhase(env.IdleThreshold, env.C, env.RegionSize, env.LongTermTTL)
	case KindFixed:
		d := sp.Hold
		if d == 0 {
			d = env.FixedHold
		}
		if d == 0 {
			d = DefaultFixedHold
		}
		return &core.FixedHold{D: d}
	case KindAll:
		return core.BufferAll{}
	case KindHash:
		return core.NewHashElect(env.IdleThreshold, int(env.C), env.Self, env.Region, env.LongTermTTL)
	case KindAdaptive:
		cfg := core.AdaptiveConfig{
			TMin:   sp.TMin,
			TMax:   sp.TMax,
			Target: sp.Target,
			Alpha:  sp.Alpha,
			C:      env.C,
			N:      env.RegionSize,
			TTL:    env.LongTermTTL,
		}
		if cfg.TMin == 0 {
			cfg.TMin = DefaultTMin
		}
		if cfg.TMax == 0 {
			cfg.TMax = DefaultTMax
		}
		if cfg.Target == 0 {
			cfg.Target = DefaultTarget
		}
		return core.NewAdaptiveHold(cfg)
	default:
		panic(fmt.Sprintf("policy: Build on unknown kind %q", sp.Kind))
	}
}

// ParamInfo documents one spec parameter for roster listings.
type ParamInfo struct {
	Name    string
	Default string
	Doc     string
}

// Info documents one registered policy for roster listings
// (rrmp-sim -list-policies).
type Info struct {
	Kind    string
	Aliases []string
	Summary string
	Params  []ParamInfo
}

// roster is the registry in listing order: the paper's default first,
// baselines after, demand-aware last.
var roster = []Info{
	{
		Kind:    KindTwoPhase,
		Summary: "paper §3: feedback-based short term, randomized C/n long-term election",
	},
	{
		Kind:    KindFixed,
		Aliases: []string{"fixed-hold"},
		Summary: "Bimodal-Multicast baseline: constant hold, no feedback, no long term",
		Params: []ParamInfo{
			{Name: "hold", Default: DefaultFixedHold.String(), Doc: "constant retention period"},
		},
	},
	{
		Kind:    KindAll,
		Aliases: []string{"buffer-all"},
		Summary: "conservative baseline: retain until external (stability) removal",
	},
	{
		Kind:    KindHash,
		Aliases: []string{"hash-elect"},
		Summary: "deterministic baseline [11]: C lowest-hash region members buffer",
	},
	{
		Kind:    KindAdaptive,
		Summary: "demand-aware: per-source hold scales with EWMA of request demand",
		Params: []ParamInfo{
			{Name: "tmin", Default: DefaultTMin.String(), Doc: "hold for a quiet source"},
			{Name: "tmax", Default: DefaultTMax.String(), Doc: "hold at saturated demand"},
			{Name: "target", Default: strconv.FormatFloat(DefaultTarget, 'g', -1, 64), Doc: "requests/message that saturates the hold"},
			{Name: "alpha", Default: strconv.FormatFloat(core.DefaultAdaptiveAlpha, 'g', -1, 64), Doc: "EWMA smoothing weight in (0, 1]"},
		},
	},
}

// Known returns the registry roster in listing order. Callers own the
// slice but must not mutate the shared Params slices.
func Known() []Info {
	out := make([]Info, len(roster))
	copy(out, roster)
	return out
}
