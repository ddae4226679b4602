package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Stddev() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram returned non-zero statistics")
	}
	if b, c := h.Buckets(4); b != nil || c != nil {
		t.Fatal("empty histogram returned buckets")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Add(v)
	}
	if h.N() != 8 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if got := h.Stddev(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", got)
	}
	if h.Min() != 2 || h.Max() != 9 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
}

func TestPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {95, 95.05},
	}
	for _, tc := range cases {
		if got := h.Percentile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := h.Percentile(-5); got != 1 {
		t.Errorf("P(-5) = %v", got)
	}
	if got := h.Percentile(200); got != 100 {
		t.Errorf("P(200) = %v", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(vals []float64, a, b uint8) bool {
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddDurationUsesMilliseconds(t *testing.T) {
	var h Histogram
	h.AddDuration(25 * time.Millisecond)
	if got := h.Mean(); got != 25 {
		t.Fatalf("AddDuration stored %v, want 25", got)
	}
}

func TestBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	bounds, counts := h.Buckets(4)
	if len(bounds) != 5 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("bucket total %d", total)
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("bounds unsorted: %v", bounds)
	}
}

func TestBucketsSingleValue(t *testing.T) {
	var h Histogram
	h.Add(5)
	h.Add(5)
	_, counts := h.Buckets(3)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Fatalf("degenerate buckets lost samples: %v", counts)
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Add(1)
	h.Add(3)
	s := h.Summarize()
	if s.N != 2 || s.Mean != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestOccupancyIntegral(t *testing.T) {
	var o Occupancy
	o.Set(0, 2)                 // level 2 from t=0
	o.Set(1*time.Second, 5)     // level 5 from t=1s
	o.Adjust(3*time.Second, -4) // level 1 from t=3s
	// integral at t=4s: 2*1 + 5*2 + 1*1 = 13
	if got := o.Integral(4 * time.Second); math.Abs(got-13) > 1e-9 {
		t.Fatalf("integral = %v, want 13", got)
	}
	if o.Level() != 1 {
		t.Fatalf("level = %v", o.Level())
	}
	if o.Peak() != 5 {
		t.Fatalf("peak = %v", o.Peak())
	}
}

func TestOccupancyPanicsOnTimeRegression(t *testing.T) {
	var o Occupancy
	o.Set(2*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on time regression")
		}
	}()
	o.Set(1*time.Second, 2)
}

func TestOccupancyIntegralNonNegativeProperty(t *testing.T) {
	prop := func(levels []uint8) bool {
		var o Occupancy
		now := time.Duration(0)
		for _, l := range levels {
			now += time.Duration(l%16) * time.Millisecond
			o.Set(now, float64(l%8))
		}
		return o.Integral(now+time.Second) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleStddevAndCI95(t *testing.T) {
	var h Histogram
	if h.SampleStddev() != 0 || h.CI95() != 0 {
		t.Fatal("empty histogram should report zero stddev/CI")
	}
	h.Add(5)
	if h.SampleStddev() != 0 || h.CI95() != 0 {
		t.Fatal("single sample should report zero stddev/CI")
	}
	h.Add(7)
	// n=2: sample sd = √2, CI95 = t(0.975, df=1)·√2/√2 = 12.706.
	if got := h.SampleStddev(); math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("SampleStddev = %v, want √2", got)
	}
	if got := h.CI95(); math.Abs(got-12.706) > 1e-9 {
		t.Fatalf("CI95 = %v, want 12.706", got)
	}
}

func TestCI95LargeSampleUsesNormalQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(float64(i % 10))
	}
	want := 1.96 * h.SampleStddev() / math.Sqrt(100)
	if got := h.CI95(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestSampleStddevExceedsPopulationStddev(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	if h.SampleStddev() <= h.Stddev() {
		t.Fatalf("Bessel correction missing: sample %v <= population %v",
			h.SampleStddev(), h.Stddev())
	}
}
