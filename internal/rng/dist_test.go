package rng

import (
	"math"
	"testing"
)

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(2)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) empirical mean %v", p, got)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(3)
	const rate, n = 2.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(rate)
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("ExpFloat64(%v) mean %v, want ~%v", rate, mean, 1/rate)
	}
}

func TestExpFloat64PanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExpFloat64(0) did not panic")
		}
	}()
	New(1).ExpFloat64(0)
}

func TestPickExcludesSelf(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		if got := r.Pick(10, 3); got == 3 || got < 0 || got >= 10 {
			t.Fatalf("Pick(10, 3) = %d", got)
		}
	}
	// Negative self means no exclusion: all indices reachable.
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Pick(4, -1)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("Pick with self=-1 only reached %v", seen)
	}
}

func TestPickUniform(t *testing.T) {
	r := New(9)
	const n, self, trials = 6, 2, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Pick(n, self)]++
	}
	if counts[self] != 0 {
		t.Fatalf("Pick returned self %d times", counts[self])
	}
	want := float64(trials) / (n - 1)
	for i, c := range counts {
		if i == self {
			continue
		}
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("Pick index %d appeared %d times, want ~%v", i, c, want)
		}
	}
}

func TestPickPanicsWhenOnlySelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick(1, 0) did not panic")
		}
	}()
	New(1).Pick(1, 0)
}

func TestJitter(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.25)
		if v < 75 || v > 125 {
			t.Fatalf("Jitter(100, .25) = %v out of [75,125]", v)
		}
	}
	if got := r.Jitter(100, 0); got != 100 {
		t.Fatalf("Jitter with frac 0 = %v", got)
	}
}
