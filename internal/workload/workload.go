// Package workload generates publish timelines and payload-size draws for
// experiments: a multi-client Spec (constant, Poisson or bursty arrivals
// per publisher, Zipf volume skew, rate windows) materialized into one
// merged Timeline, and fixed / uniform / lognormal payload-size models.
//
// A Timeline yields the virtual times at which each publisher publishes and
// how many bytes each publish carries; drivers schedule those instants on
// the simulator. Timelines are pure data, so the same workload can be
// replayed against different protocols or policies for paired comparisons.
package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// Schedule is a sorted list of publish instants relative to the run start:
// one client's arrivals, before Spec.Timeline merges them.
type Schedule []time.Duration

// A SizeModel draws per-message payload sizes, the second workload axis:
// where a Schedule says when the sender publishes, a SizeModel says how
// many bytes each publish carries. Byte-budgeted buffer experiments sweep
// this axis to decouple byte cost from message count.
type SizeModel interface {
	// Name returns the model's stable token ("fixed", "uniform",
	// "lognormal"), used in scenario cell names.
	Name() string
	// Size draws one payload size in bytes (always >= 1). Deterministic
	// models ignore r; randomized models must not be called with a nil r.
	Size(r *rng.Source) int
}

// Size-model tokens accepted by NewSizeModel (and the -payload-model flag).
const (
	SizeFixed     = "fixed"
	SizeUniform   = "uniform"
	SizeLognormal = "lognormal"
)

// FixedSize yields every payload at exactly this many bytes.
type FixedSize int

// Name implements SizeModel.
func (f FixedSize) Name() string { return SizeFixed }

// Size implements SizeModel.
func (f FixedSize) Size(*rng.Source) int {
	if f < 1 {
		return 1
	}
	return int(f)
}

// UniformSize yields payloads uniform on [Min, Max] bytes (inclusive).
type UniformSize struct {
	Min, Max int
}

// Name implements SizeModel.
func (u UniformSize) Name() string { return SizeUniform }

// Size implements SizeModel.
func (u UniformSize) Size(r *rng.Source) int {
	lo, hi := u.Min, u.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + r.Intn(hi-lo+1)
}

// LognormalSize yields heavy-tailed payloads with the given mean: sizes are
// exp(N(mu, Sigma²)) rounded to bytes, with mu chosen so the distribution's
// mean is Mean (mu = ln(Mean) − Sigma²/2). Real multicast payload traces
// are closer to this than to any fixed size: most messages are small, a few
// are much larger, and it is exactly the mix that separates byte-accurate
// buffer accounting from message counting.
type LognormalSize struct {
	Mean  int
	Sigma float64
}

// Name implements SizeModel.
func (l LognormalSize) Name() string { return SizeLognormal }

// Size implements SizeModel.
func (l LognormalSize) Size(r *rng.Source) int {
	mean := float64(l.Mean)
	if mean < 1 {
		mean = 1
	}
	sigma := l.Sigma
	if sigma <= 0 {
		sigma = defaultLognormalSigma
	}
	mu := math.Log(mean) - sigma*sigma/2
	n := int(math.Round(math.Exp(mu + sigma*r.NormFloat64())))
	if n < 1 {
		return 1
	}
	return n
}

// defaultLognormalSigma is the shape used when LognormalSize.Sigma is unset
// (and by NewSizeModel): a moderate heavy tail where the largest of ~100
// draws is typically 4–6× the mean.
const defaultLognormalSigma = 0.75

// NewSizeModel builds the model for a token around a mean payload size:
// "fixed" is exactly mean bytes, "uniform" spans [mean/2, 3·mean/2], and
// "lognormal" has the default sigma. mean < 1 defaults to 256 (the historic
// payload every experiment published before the size axis existed).
func NewSizeModel(token string, mean int) (SizeModel, error) {
	if mean < 1 {
		mean = 256
	}
	switch token {
	case "", SizeFixed:
		return FixedSize(mean), nil
	case SizeUniform:
		return UniformSize{Min: mean - mean/2, Max: mean + mean/2}, nil
	case SizeLognormal:
		return LognormalSize{Mean: mean}, nil
	default:
		return nil, fmt.Errorf("workload: unknown payload size model %q", token)
	}
}

// Deterministic reports whether m never consumes randomness, so callers can
// skip deriving an rng stream (keeping fixed-size runs byte-identical to
// runs that predate the size axis).
func Deterministic(m SizeModel) bool {
	_, ok := m.(FixedSize)
	return ok
}

// Sizes draws n payload sizes from m. r may be nil for deterministic
// models.
func Sizes(m SizeModel, n int, r *rng.Source) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = m.Size(r)
	}
	return out
}

// Valid reports whether the schedule is non-decreasing (drivers rely on
// in-order scheduling).
func (s Schedule) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}
