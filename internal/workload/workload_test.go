package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

// TestScheduleValid pins the ordering check every client schedule passes
// before Spec.Timeline merges it: non-decreasing instants (ties allowed)
// are valid, any step backwards is not.
func TestScheduleValid(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		s    Schedule
		want bool
	}{
		{nil, true},
		{Schedule{0}, true},
		{Schedule{0, ms, ms, 3 * ms}, true},
		{Schedule{0, 2 * ms, ms}, false},
		{Schedule{5 * ms, 0}, false},
	}
	for _, c := range cases {
		if got := c.s.Valid(); got != c.want {
			t.Fatalf("Schedule%v.Valid() = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestFixedSize(t *testing.T) {
	if got := (FixedSize(512)).Size(nil); got != 512 {
		t.Fatalf("fixed size %d", got)
	}
	if got := (FixedSize(0)).Size(nil); got != 1 {
		t.Fatalf("degenerate fixed size %d, want 1", got)
	}
	if !Deterministic(FixedSize(256)) {
		t.Fatal("FixedSize not deterministic")
	}
	if Deterministic(UniformSize{1, 2}) || Deterministic(LognormalSize{Mean: 9}) {
		t.Fatal("randomized model claimed deterministic")
	}
}

func TestUniformSizeRange(t *testing.T) {
	r := rng.New(5)
	m := UniformSize{Min: 100, Max: 300}
	seen := map[int]bool{}
	for i := 0; i < 4000; i++ {
		n := m.Size(r)
		if n < 100 || n > 300 {
			t.Fatalf("uniform draw %d outside [100,300]", n)
		}
		seen[n] = true
	}
	if len(seen) < 150 {
		t.Fatalf("uniform draws hit only %d distinct sizes", len(seen))
	}
	if got := (UniformSize{Min: -4, Max: -2}).Size(r); got != 1 {
		t.Fatalf("degenerate uniform %d, want 1", got)
	}
}

// TestLognormalSizeMean checks the mu = ln(mean) − sigma²/2 correction:
// the empirical mean of many draws must land near the requested mean.
func TestLognormalSizeMean(t *testing.T) {
	r := rng.New(7)
	m := LognormalSize{Mean: 1024}
	const n = 200000
	var sum float64
	min, max := math.MaxInt, 0
	for i := 0; i < n; i++ {
		v := m.Size(r)
		sum += float64(v)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	got := sum / n
	if math.Abs(got-1024) > 1024*0.05 {
		t.Fatalf("lognormal mean %.0f, want ~1024", got)
	}
	// Heavy tail: the extremes must straddle the mean by a wide margin.
	if min >= 512 || max <= 2048 {
		t.Fatalf("lognormal range [%d, %d] suspiciously tight", min, max)
	}
}

func TestNewSizeModel(t *testing.T) {
	cases := []struct {
		token string
		mean  int
		want  SizeModel
	}{
		{"", 512, FixedSize(512)},
		{SizeFixed, 0, FixedSize(256)}, // unset mean keeps the historic 256
		{SizeUniform, 1000, UniformSize{Min: 500, Max: 1500}},
		{SizeLognormal, 64, LognormalSize{Mean: 64}},
	}
	for _, c := range cases {
		got, err := NewSizeModel(c.token, c.mean)
		if err != nil {
			t.Fatalf("NewSizeModel(%q, %d): %v", c.token, c.mean, err)
		}
		if got != c.want {
			t.Fatalf("NewSizeModel(%q, %d) = %#v, want %#v", c.token, c.mean, got, c.want)
		}
	}
	if _, err := NewSizeModel("zipf", 256); err == nil {
		t.Fatal("unknown model token accepted")
	}
}

// Property: every model yields sizes >= 1, Sizes returns exactly n draws,
// and identically seeded streams draw identical size sequences.
func TestSizesDeterministicProperty(t *testing.T) {
	prop := func(kindRaw, nRaw uint8, mean uint16, seed uint16) bool {
		n := int(nRaw % 50)
		m, err := NewSizeModel(
			[]string{SizeFixed, SizeUniform, SizeLognormal}[kindRaw%3],
			int(mean%4096),
		)
		if err != nil {
			return false
		}
		a := Sizes(m, n, rng.New(uint64(seed)))
		b := Sizes(m, n, rng.New(uint64(seed)))
		if n <= 0 {
			return a == nil && b == nil
		}
		if len(a) != n || len(b) != n {
			return false
		}
		for i := range a {
			if a[i] != b[i] || a[i] < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
