package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) from CPython.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// "The highest percentile with at least ten samples beyond it."
func TestHighestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		label string
		value float64
	}{
		{14, "max", 14},
		{39, "max", 39},
		{40, "p75", 30},
		{100, "p90", 90},
		{200, "p95", 190},
		{1000, "p99", 990},
		{10000, "p99.9", 9990},
	} {
		label, value := highestPercentile(ramp(c.n))
		if label != c.label || value != c.value {
			t.Errorf("n=%d: got %s %v, want %s %v", c.n, label, value, c.label, c.value)
		}
	}
}

func TestDigestIsCanonical(t *testing.T) {
	a := map[string]float64{}
	for _, k := range []string{"events", "zeta", "alpha"} {
		a[k] = float64(len(k)) / 3
	}
	b := map[string]float64{}
	for _, k := range []string{"alpha", "zeta", "events"} {
		b[k] = float64(len(k)) / 3
	}
	da, err := digestMaps([]map[string]float64{a})
	if err != nil {
		t.Fatal(err)
	}
	db, _ := digestMaps([]map[string]float64{b})
	if da != db {
		t.Errorf("equal maps hash differently: %s vs %s", da, db)
	}
	b["alpha"] = math.Nextafter(b["alpha"], 1)
	if dc, _ := digestMaps([]map[string]float64{b}); dc == da {
		t.Error("a one-ulp change did not change the digest")
	}
	if _, err := digestMaps([]map[string]float64{{"x": math.NaN()}}); err == nil {
		t.Error("a NaN metric must not hash silently")
	}
}
