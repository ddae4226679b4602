package rng

import "math"

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped, so Bernoulli(1.1) is always true and Bernoulli(-0.1) always
// false.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) ExpFloat64(rate float64) float64 {
	if rate <= 0 {
		panic("rng: ExpFloat64 with rate <= 0")
	}
	// Inverse transform sampling. 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-r.Float64()) / rate
}

// NormFloat64 returns a standard normal draw (mean 0, stddev 1) via the
// Box–Muller transform. Exactly two uniform draws are consumed per call,
// so streams using it stay trivially reproducible.
func (r *Source) NormFloat64() float64 {
	// 1-Float64() is in (0,1], avoiding log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Pick returns a uniformly random element index of a collection of size n,
// excluding the index self (pass a negative self to exclude nothing). It
// panics if no valid index exists.
func (r *Source) Pick(n, self int) int {
	if self < 0 || self >= n {
		return r.Intn(n)
	}
	if n < 2 {
		panic("rng: Pick with no candidate other than self")
	}
	k := r.Intn(n - 1)
	if k >= self {
		k++
	}
	return k
}

// Jitter returns a value uniform in [d*(1-frac), d*(1+frac)]. Negative
// results are clamped to zero. It is used to desynchronize periodic timers.
func (r *Source) Jitter(d float64, frac float64) float64 {
	if frac <= 0 {
		return d
	}
	v := d * (1 - frac + 2*frac*r.Float64())
	if v < 0 {
		return 0
	}
	return v
}
