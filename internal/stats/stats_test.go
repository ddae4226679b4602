package stats

import (
	"math"
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
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram returned non-zero statistics")
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
	if h.Min() != 2 || h.Max() != 9 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
}

func TestAddDurationUsesMilliseconds(t *testing.T) {
	var r RunningMean
	r.AddDuration(25 * time.Millisecond)
	if got := r.Mean(); got != 25 || r.N() != 1 {
		t.Fatalf("AddDuration stored mean %v over %d samples, want 25 over 1", got, r.N())
	}
}

// TestRunningMeanMatchesSampleList pins that a running mean reads the same
// bits as the mean of the sample list it replaced, on sequences where the
// order of summation shows: cancellation of large terms, magnitudes far
// apart, and subnormals. With no samples both read 0.
func TestRunningMeanMatchesSampleList(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	seqs := [][]float64{
		{},
		{1e16, 1, -1e16},
		{1, 1e16, -1e16, 1, 1},
		{-1e16, 1e16, 1, 1, 1},
		{0.1, 0.2, 0.3, 1e-3, 123456.789, 1e-9, 7},
		{1e300, 1e300, -1e300, 3},
		{1e-310, 1e-312, 1e-315, sub, sub},
		{sub, 1, -1, sub, 3 * sub},
		{math.MaxFloat64 / 4, math.MaxFloat64 / 4, -math.MaxFloat64 / 4, 1e-300},
	}
	// Mixed magnitudes in a fixed pseudo-random order.
	x := uint64(0x9e3779b97f4a7c15)
	var mixed []float64
	for range 4096 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := math.Ldexp(float64(x>>11)/(1<<53), int(x%80)-40)
		if x&1 == 1 {
			v = -v
		}
		mixed = append(mixed, v)
	}
	seqs = append(seqs, mixed)
	for i, seq := range seqs {
		var r RunningMean
		var h Histogram
		for _, v := range seq {
			r.add(v)
			h.Add(v)
		}
		if math.Float64bits(r.Mean()) != math.Float64bits(h.Mean()) || r.N() != h.N() {
			t.Errorf("sequence %d: running mean %v over %d, sample list %v over %d", i, r.Mean(), r.N(), h.Mean(), h.N())
		}
	}
	// Durations at the ends of their range, through the exported path.
	var r RunningMean
	var h Histogram
	for _, d := range []time.Duration{math.MaxInt64, 1, math.MinInt64 + 1, 1, 999_999, 3} {
		r.AddDuration(d)
		h.Add(float64(d) / float64(time.Millisecond))
	}
	if math.Float64bits(r.Mean()) != math.Float64bits(h.Mean()) {
		t.Errorf("extreme durations: running mean %v, sample list %v", r.Mean(), h.Mean())
	}
}

// TestOccupancyIntegral drives both levels through steps, the second at
// ten times the first, with Advance before each change and Raise after.
func TestOccupancyIntegral(t *testing.T) {
	var o Occupancy
	var level [2]float64
	set := func(now time.Duration, v float64) {
		o.Advance(now, level)
		level = [2]float64{v, 10 * v}
		o.Raise(level)
	}
	set(0, 2)             // level 2 from t=0
	set(1*time.Second, 5) // level 5 from t=1s
	set(3*time.Second, 1) // level 1 from t=3s
	// integral at t=4s: 2*1 + 5*2 + 1*1 = 13
	got := o.Integral(4*time.Second, level)
	if math.Abs(got[0]-13) > 1e-9 || math.Abs(got[1]-130) > 1e-9 {
		t.Fatalf("integral = %v, want [13 130]", got)
	}
	if o.Peak() != [2]float64{5, 50} {
		t.Fatalf("peak = %v", o.Peak())
	}
}

func TestOccupancyPanicsOnTimeRegression(t *testing.T) {
	var o Occupancy
	o.Advance(2*time.Second, [2]float64{1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on time regression")
		}
	}()
	o.Advance(1*time.Second, [2]float64{2, 2})
}

func TestOccupancyIntegralNonNegativeProperty(t *testing.T) {
	prop := func(levels []uint8) bool {
		var o Occupancy
		var level [2]float64
		now := time.Duration(0)
		for _, l := range levels {
			now += time.Duration(l%16) * time.Millisecond
			o.Advance(now, level)
			level = [2]float64{float64(l % 8), float64(l)}
		}
		got := o.Integral(now+time.Second, level)
		return got[0] >= 0 && got[1] >= 0
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
	// The population (n) deviation of {1, 2, 3, 4} is √1.25.
	if h.SampleStddev() <= math.Sqrt(1.25) {
		t.Fatalf("Bessel correction missing: sample %v <= population %v",
			h.SampleStddev(), math.Sqrt(1.25))
	}
}

// TestOrderStatisticsKeepInsertionOrder pins that Min and Max leave the
// samples as they were: the mean sums in insertion order, so it must read
// the same bits before and after them.
func TestOrderStatisticsKeepInsertionOrder(t *testing.T) {
	var h Histogram
	in := []float64{1e16, 1, -1e16, 1}
	for _, v := range in {
		h.Add(v)
	}
	before := h.Mean()
	if h.Min() != -1e16 || h.Max() != 1e16 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if after := h.Mean(); math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("Mean = %v after Min/Max, %v before", after, before)
	}
}
