// Package stats provides the measurement primitives the experiments use:
// counters, exact-sample histograms with percentiles, time series, and a
// step-function integrator for buffer-occupancy × time accounting.
//
// All types favor exactness over constant memory because experiment scales
// here are modest (at most a few million samples); this keeps reported
// percentiles free of sketch error when comparing against the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// Histogram accumulates float64 samples and reports exact order statistics.
// The zero value is ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// AddDuration records a duration sample in milliseconds, the unit used by
// every figure in the paper.
func (h *Histogram) AddDuration(d time.Duration) {
	h.Add(float64(d) / float64(time.Millisecond))
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

// Stddev returns the population standard deviation (0 with <2 samples).
func (h *Histogram) Stddev() float64 {
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
	return math.Sqrt(ss / float64(n))
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
	h.sort()
	return h.samples[0]
}

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. It returns 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.sort()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Buckets counts samples into k equal-width buckets across [min, max] and
// returns the bucket boundaries and counts. Useful for printing figure-style
// distributions. With no samples it returns nils.
func (h *Histogram) Buckets(k int) (bounds []float64, counts []int) {
	if len(h.samples) == 0 || k < 1 {
		return nil, nil
	}
	h.sort()
	lo, hi := h.samples[0], h.samples[len(h.samples)-1]
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(k)
	bounds = make([]float64, k+1)
	for i := range bounds {
		bounds[i] = lo + float64(i)*width
	}
	counts = make([]int, k)
	for _, v := range h.samples {
		i := int((v - lo) / width)
		if i >= k {
			i = k - 1
		}
		counts[i]++
	}
	return bounds, counts
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Values returns a copy of all recorded samples (in sorted order if any
// order statistic has been queried; insertion order otherwise). Use it to
// merge histograms across members.
func (h *Histogram) Values() []float64 {
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// Summary is a compact digest of a histogram.
type Summary struct {
	N                  int
	Mean, Stddev       float64
	Min, P50, P95, Max float64
}

// Summarize returns the histogram's summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		N:      h.N(),
		Mean:   h.Mean(),
		Stddev: h.Stddev(),
		Min:    h.Min(),
		P50:    h.Percentile(50),
		P95:    h.Percentile(95),
		Max:    h.Max(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P95, s.Max)
}

// Occupancy integrates a step function over time: it tracks a current level
// (for example "buffered messages at this member") and accumulates
// level × elapsed-time. The integral's unit is value-seconds.
// The zero value starts at level 0 at time 0.
type Occupancy struct {
	level    float64
	since    time.Duration
	integral float64 // value-seconds accumulated before 'since'
	peak     float64
}

// Set moves the level to v at time now. Time must be non-decreasing across
// calls; regressions panic because they indicate simulator misuse.
func (o *Occupancy) Set(now time.Duration, v float64) {
	if now < o.since {
		panic(fmt.Sprintf("stats: Occupancy time moved backwards: %v < %v", now, o.since))
	}
	o.integral += o.level * (now - o.since).Seconds()
	o.since = now
	o.level = v
	if v > o.peak {
		o.peak = v
	}
}

// Adjust adds dv to the current level at time now.
func (o *Occupancy) Adjust(now time.Duration, dv float64) {
	o.Set(now, o.level+dv)
}

// Level returns the current level.
func (o *Occupancy) Level() float64 { return o.level }

// Peak returns the highest level observed.
func (o *Occupancy) Peak() float64 { return o.peak }

// Integral returns the accumulated value-seconds up to time now.
func (o *Occupancy) Integral(now time.Duration) float64 {
	if now < o.since {
		panic(fmt.Sprintf("stats: Occupancy integral queried in the past: %v < %v", now, o.since))
	}
	return o.integral + o.level*(now-o.since).Seconds()
}
