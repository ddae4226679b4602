package stats

import (
	"math"
	"math/big"
	"slices"
	"testing"
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

// TestRunningMeanMatchesSampleList pins that a running mean is the exact
// mean of its samples rounded once: on each sample list, forwards and
// reversed, Mean must read the bits of Σ/(n·10⁶) computed in rationals and
// rounded to the nearest float64, and Sum the exact total. The lists keep
// the sum below 2⁵³ ns, where that one rounding is Mean's only one; they
// include cancellation, magnitudes far apart and orders a float sum would
// round differently. With no samples the mean reads 0.
func TestRunningMeanMatchesSampleList(t *testing.T) {
	const big53 = time.Duration(1) << 52
	seqs := [][]time.Duration{
		{},
		{1},
		{big53, 1, -big53},
		{1, big53, -big53, 1, 1},
		{-big53, big53, 1, 1, 1},
		{100 * time.Microsecond, 200 * time.Microsecond, 300 * time.Microsecond, 1, 123456789 * time.Microsecond, 7},
		{999_999, 3, 1, 1, 1},
	}
	// Mixed magnitudes in a fixed pseudo-random order.
	x := uint64(0x9e3779b97f4a7c15)
	var mixed []time.Duration
	for range 4096 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d := time.Duration(x>>(11+x%40)) % (1 << 40)
		if x&1 == 1 {
			d = -d
		}
		mixed = append(mixed, d)
	}
	seqs = append(seqs, mixed)
	for i, seq := range seqs {
		sum := new(big.Int)
		for _, d := range seq {
			sum.Add(sum, big.NewInt(int64(d)))
		}
		want := 0.0
		if len(seq) > 0 {
			want, _ = new(big.Rat).SetFrac(sum, big.NewInt(int64(len(seq))*int64(time.Millisecond))).Float64()
		}
		reversed := slices.Clone(seq)
		slices.Reverse(reversed)
		for _, order := range [][]time.Duration{seq, reversed} {
			var r RunningMean
			for _, d := range order {
				r.AddDuration(d)
			}
			if math.Float64bits(r.Mean()) != math.Float64bits(want) || r.N() != len(seq) || int64(r.Sum()) != sum.Int64() {
				t.Errorf("sequence %d: running mean %v over %d (sum %v), exact %v over %d (sum %v)", i, r.Mean(), r.N(), r.Sum(), want, len(seq), sum)
			}
		}
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
