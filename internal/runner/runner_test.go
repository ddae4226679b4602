package runner

import (
	"math"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestClusterEndToEnd(t *testing.T) {
	topo, err := topology.Chain(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	params := rrmp.DefaultParams()
	params.C = 20 // guarantee recoverability for the assertion
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Sender.StartSessions()
	id := c.Sender.Publish([]byte("hello"))
	c.Engine.RunUntil(2 * time.Second)
	if got := c.CountReceived(id); got != 20 {
		t.Fatalf("received %d/20", got)
	}
}

func TestClusterRequiresTopo(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("NewCluster without topology succeeded")
	}
}

func TestFigure3SimulationMatchesAnalytic(t *testing.T) {
	series := Figure3([]float64{6}, 100, 20000, 3)
	if len(series) != 2 {
		t.Fatalf("series count %d", len(series))
	}
	ana, mc := series[0], series[1]
	for i := range ana.X {
		if math.Abs(ana.Y[i]-mc.Y[i]) > 1.5 { // percent points
			t.Fatalf("k=%v: analytic %.2f%% vs simulated %.2f%%", ana.X[i], ana.Y[i], mc.Y[i])
		}
	}
	// The analytic mode of Poisson(6) sits at k=5/6 with ~16% mass.
	if ana.Y[6] < 13 || ana.Y[6] > 18 {
		t.Fatalf("analytic P[k=6] = %.2f%%", ana.Y[6])
	}
}

func TestFigure4HeadlineNumber(t *testing.T) {
	series := Figure4([]float64{1, 2, 3, 4, 5, 6}, 100, 50000, 4)
	ana, mc := series[0], series[1]
	// Paper: "When C = 6 ... the probability is only 0.25%."
	last := len(ana.X) - 1
	if math.Abs(ana.Y[last]-0.248) > 0.02 {
		t.Fatalf("analytic P[none|C=6] = %.3f%%", ana.Y[last])
	}
	if math.Abs(mc.Y[last]-ana.Y[last]) > 0.25 {
		t.Fatalf("simulated %.3f%% vs analytic %.3f%%", mc.Y[last], ana.Y[last])
	}
	// Strictly decreasing in C (exponential decay).
	for i := 1; i < len(ana.Y); i++ {
		if ana.Y[i] >= ana.Y[i-1] {
			t.Fatal("analytic curve not decreasing")
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	cfg := DefaultFig6Config()
	cfg.Runs = 5 // keep the test quick; the bench uses more
	cfg.InitialHolders = []int{1, 8, 64}
	s, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Y) != 3 {
		t.Fatalf("points %d", len(s.Y))
	}
	// Paper Figure 6: buffering time decreases as more members hold the
	// message initially; k=1 sits near ~100 ms, k=64 near T=40 ms.
	if !(s.Y[0] > s.Y[1] && s.Y[1] > s.Y[2]) {
		t.Fatalf("buffering time not decreasing: %v", s.Y)
	}
	if s.Y[0] < 60 || s.Y[0] > 200 {
		t.Fatalf("k=1 buffering time %.1f ms, expected ~100 ms", s.Y[0])
	}
	if s.Y[2] < 40 || s.Y[2] > 70 {
		t.Fatalf("k=64 buffering time %.1f ms, expected slightly above T=40 ms", s.Y[2])
	}
}

func TestFigure7Shape(t *testing.T) {
	s, err := Figure7(100, 5, time.Millisecond, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TimesMs) == 0 {
		t.Fatal("no samples")
	}
	last := len(s.TimesMs) - 1
	// All 100 members eventually receive the message.
	if s.Received[last] != 100 {
		t.Fatalf("received at end = %d", s.Received[last])
	}
	// Received is monotone non-decreasing.
	for i := 1; i <= last; i++ {
		if s.Received[i] < s.Received[i-1] {
			t.Fatal("received series decreased")
		}
	}
	// Buffered rises with received early on, then collapses once the
	// region is repaired (C=0: everything is eventually discarded).
	peak := 0
	for _, b := range s.Buffered {
		if b > peak {
			peak = b
		}
	}
	if peak < 50 {
		t.Fatalf("peak buffered %d, expected most receivers to buffer", peak)
	}
	if s.Buffered[last] != 0 {
		t.Fatalf("buffered at end = %d, want 0", s.Buffered[last])
	}
}

func TestSearchZeroWhenEveryoneBuffers(t *testing.T) {
	res, err := RunSearch(SearchConfig{RegionSize: 20, Bufferers: 20, Runs: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRuns != 0 {
		t.Fatalf("failed runs %d", res.FailedRuns)
	}
	if res.SearchTimeMs.Mean != 0 {
		t.Fatalf("search time %.2f ms with all members buffering, want 0", res.SearchTimeMs.Mean)
	}
}

func TestSearchTimeDecreasesWithBufferers(t *testing.T) {
	few, err := RunSearch(SearchConfig{RegionSize: 100, Bufferers: 1, Runs: 30, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunSearch(SearchConfig{RegionSize: 100, Bufferers: 10, Runs: 30, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if few.FailedRuns != 0 || many.FailedRuns != 0 {
		t.Fatalf("failed runs: %d, %d", few.FailedRuns, many.FailedRuns)
	}
	if few.SearchTimeMs.Mean <= many.SearchTimeMs.Mean {
		t.Fatalf("search time with 1 bufferer (%.1f ms) not greater than with 10 (%.1f ms)",
			few.SearchTimeMs.Mean, many.SearchTimeMs.Mean)
	}
}

func TestSearchSublinearInRegionSize(t *testing.T) {
	small, err := RunSearch(SearchConfig{RegionSize: 100, Bufferers: 10, Runs: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunSearch(SearchConfig{RegionSize: 1000, Bufferers: 10, Runs: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ratio := large.SearchTimeMs.Mean / small.SearchTimeMs.Mean
	// Paper: 10x region growth → ~2.2x search time. Accept a generous band
	// around sub-linear growth.
	if ratio >= 5 {
		t.Fatalf("search time ratio %.2f for 10x region growth, expected sub-linear (~2.2)", ratio)
	}
	if ratio <= 1 {
		t.Fatalf("search time did not grow with region size (ratio %.2f)", ratio)
	}
}

func TestDeterministicSearchRoutesDirectly(t *testing.T) {
	res, err := RunSearch(SearchConfig{RegionSize: 100, Bufferers: 5, Runs: 20, Seed: 12, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRuns != 0 {
		t.Fatalf("failed runs %d", res.FailedRuns)
	}
	// Direct routing: at most one forward per episode, so the mean search
	// time is bounded by one region round-trip.
	if res.Forwards > 1.01 {
		t.Fatalf("deterministic routing used %.2f forwards per episode", res.Forwards)
	}
	if res.SearchTimeMs.Mean > 11 {
		t.Fatalf("deterministic search time %.2f ms, want <= ~1 RTT", res.SearchTimeMs.Mean)
	}
}

func TestRunSearchValidation(t *testing.T) {
	if _, err := RunSearch(SearchConfig{RegionSize: 10, Bufferers: 0, Runs: 1}); err == nil {
		t.Fatal("bufferers=0 accepted")
	}
	if _, err := RunSearch(SearchConfig{RegionSize: 10, Bufferers: 11, Runs: 1}); err == nil {
		t.Fatal("bufferers>region accepted")
	}
}

func TestCountHelpers(t *testing.T) {
	topo, err := topology.SingleRegion(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Topo: topo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := wire.MessageID{Source: 0, Seq: 1}
	c.Members[1].InjectDeliver(id, nil)
	c.Members[2].InjectDiscarded(id)
	if got := c.CountReceived(id); got != 2 {
		t.Fatalf("CountReceived = %d", got)
	}
	if got := c.CountBuffered(id); got != 1 {
		t.Fatalf("CountBuffered = %d", got)
	}
}

// Sanity-check the §3.1 feedback formula against a live region: with all
// members missing (p=1) nearly every holder sees a request.
func TestProbNoRequestSanity(t *testing.T) {
	got := analytic.ProbNoRequest(100, 1)
	if got > 0.40 || got < 0.30 {
		t.Fatalf("ProbNoRequest(100, 1) = %v, want ~e^-1", got)
	}
}
