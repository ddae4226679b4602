package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// method Python's statistics.quantiles(xs, n=4) uses, so `bench compare`
// prints the spread the driver computes. Fewer than two values yield the
// single value (or zeros) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale; j is clamped into the
		// sample and delta taken afterwards, exactly as CPython does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first, each with the share of the sample beyond
// it in per-mille (integers, so the sample-count test is exact).
var tailPercentiles = []struct {
	label    string
	permille int
}{{"p99.9", 1}, {"p99", 10}, {"p95", 50}, {"p90", 100}, {"p75", 250}}

// highestPercentile picks the highest percentile of tailPercentiles that
// still has at least ten samples beyond it, and returns its label and
// nearest-rank value. With fewer than 40 samples no tail percentile
// qualifies and it reports the maximum, labelled "max".
func highestPercentile(xs []float64) (label string, value float64) {
	if len(xs) == 0 {
		return "max", 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		if beyond := n * p.permille / 1000; beyond >= 10 {
			return p.label, s[n-1-beyond]
		}
	}
	return "max", s[n-1]
}

// timing is the descriptive summary of a set of per-trial wall times.
type timing struct {
	Count   int     `json:"count"`
	MedianS float64 `json:"median_s"`
	// Tail names the percentile TailS reports ("p90", ... or "max").
	Tail  string  `json:"tail"`
	TailS float64 `json:"tail_s"`
}

func summarize(walls []float64) timing {
	label, v := highestPercentile(walls)
	return timing{Count: len(walls), MedianS: median(walls), Tail: label, TailS: v}
}

// digestMaps is the sim_digest of a single-scenario workload: SHA-256 of
// the canonical JSON of every trial's metric map, in trial order.
// encoding/json writes map keys sorted and floats in their shortest
// round-trip form, so equal maps always hash equal.
func digestMaps(trials []map[string]float64) (string, error) {
	b, err := json.Marshal(trials)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
