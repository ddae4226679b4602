// Package stats provides the measurement primitives the experiments use:
// counters, running means, exact-sample histograms that report the mean,
// extremes and a 95% confidence interval, and a step-function integrator
// for buffer-occupancy × time accounting.
//
// A member keeps only counters, running means and integrators, so its
// metrics stay constant-size however many messages it sees. A histogram
// keeps every sample; it summarizes a sweep cell's trials or a figure's
// runs, a few samples each.
package stats

import (
	"fmt"
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

// RunningMean accumulates duration samples into a count and a sum. It adds
// in insertion order, as Histogram.Mean sums, so on one sequence the two
// means are the same bits. The zero value is ready to use.
type RunningMean struct {
	sum float64
	n   int
}

// AddDuration records a duration sample in milliseconds, the unit used by
// every figure in the paper.
func (r *RunningMean) AddDuration(d time.Duration) {
	r.add(float64(d) / float64(time.Millisecond))
}

func (r *RunningMean) add(v float64) {
	r.sum += v
	r.n++
}

// N returns the number of samples recorded.
func (r *RunningMean) N() int { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
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

// Occupancy integrates two step functions over time that change at the
// same instants, such as a buffer's message count and its payload bytes:
// it accumulates level × elapsed-time for each. It holds no level of its
// own: its owner keeps the levels, passes them to Advance before it
// changes either and to Raise after it raises one. The integrals' unit is
// value-seconds. The zero value starts at time 0.
type Occupancy struct {
	since    time.Duration
	integral [2]float64 // value-seconds accumulated before since
	peak     [2]float64
}

// Advance accumulates levels, held since the previous call, up to now.
// Time must be non-decreasing across calls; regressions panic because they
// indicate simulator misuse.
func (o *Occupancy) Advance(now time.Duration, levels [2]float64) {
	if now < o.since {
		panic(fmt.Sprintf("stats: Occupancy time moved backwards: %v < %v", now, o.since))
	}
	for i, v := range levels {
		o.integral[i] += v * (now - o.since).Seconds()
	}
	o.since = now
}

// Raise records levels as reached, for Peak.
func (o *Occupancy) Raise(levels [2]float64) {
	for i, v := range levels {
		if v > o.peak[i] {
			o.peak[i] = v
		}
	}
}

// Peak returns the highest levels Raise was given.
func (o *Occupancy) Peak() [2]float64 { return o.peak }

// Integral returns the accumulated value-seconds up to time now, with
// levels held since the last Advance.
func (o *Occupancy) Integral(now time.Duration, levels [2]float64) [2]float64 {
	if now < o.since {
		panic(fmt.Sprintf("stats: Occupancy integral queried in the past: %v < %v", now, o.since))
	}
	for i, v := range levels {
		levels[i] = o.integral[i] + v*(now-o.since).Seconds()
	}
	return levels
}
