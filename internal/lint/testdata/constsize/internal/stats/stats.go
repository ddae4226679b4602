// Package stats mirrors the two shapes of repro/internal/stats a member's
// metrics could hold: a tally of constant size, and a list of samples.
package stats

// RunningMean is a count and a sum.
type RunningMean struct {
	sum int64
	n   int
}

// Histogram keeps every sample.
type Histogram struct {
	samples []float64
}
