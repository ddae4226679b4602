// Package stats provides the measurement primitives the experiments use:
// counters, running means of durations, and exact-sample histograms that
// report the mean, extremes and a 95% confidence interval.
//
// A member keeps only counters and running means, so its metrics stay
// constant-size however many messages it sees. A histogram
// keeps every sample; it summarizes a sweep cell's trials or a figure's
// runs, a few samples each.
package stats

import (
	"math"
	"slices"
	"time"
)

// Counter is a monotonically adjustable tally. The zero value is ready to
// use. Counter is not safe for concurrent use (each event loop is single
// threaded and every member keeps its own stats).
type Counter struct {
	n int64
}

// Add increments the counter by d (d may be negative).
func (c *Counter) Add(d int64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.n }

// RunningMean accumulates duration samples into a count and an exact
// nanosecond sum, so its mean does not depend on the order of the samples.
// The zero value is ready to use.
type RunningMean struct {
	sum int64 // nanoseconds
	n   int
}

// AddDuration records one duration sample.
func (r *RunningMean) AddDuration(d time.Duration) {
	r.sum += int64(d)
	r.n++
}

// N returns the number of samples recorded.
func (r *RunningMean) N() int { return r.n }

// Sum returns the samples' exact total.
func (r *RunningMean) Sum() time.Duration { return time.Duration(r.sum) }

// Mean returns the sample mean in milliseconds, the unit of every figure in
// the paper (0 with no samples). It divides once: below 2⁵³ ns and 2⁵³/10⁶
// samples the result is the exact mean rounded once.
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.sum) / (float64(r.n) * float64(time.Millisecond))
}

// Histogram accumulates float64 samples and reports exact order statistics.
// The zero value is ready to use.
type Histogram struct {
	samples []float64
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
}

// N returns the number of samples recorded.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// SampleStddev returns the Bessel-corrected (n−1) standard deviation, the
// estimator confidence intervals need (0 with <2 samples).
func (h *Histogram) SampleStddev() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// t975 holds the 0.975 quantile of Student's t distribution for 1..30
// degrees of freedom; beyond 30 the normal quantile 1.96 is used.
var t975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using Student's t for small sample counts (0 with <2 samples). The
// sweep runner reports every aggregated metric as mean ± CI95.
func (h *Histogram) CI95() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	df := n - 1
	q := 1.96
	if df <= len(t975) {
		q = t975[df-1]
	}
	return q * h.SampleStddev() / math.Sqrt(float64(n))
}

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return slices.Min(h.samples)
}

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return slices.Max(h.samples)
}
