package runner

import (
	"math"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/trace"
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
	tab := figure3([]float64{6}, 100, 20000, 3)
	if len(tab.Cols) != 2 || len(tab.Rows) != 21 {
		t.Fatalf("%d curves, %d points", len(tab.Cols), len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if ana, mc := r.Vals[0], r.Vals[1]; math.Abs(ana-mc) > 1.5 { // percent points
			t.Fatalf("k=%s: analytic %.2f%% vs simulated %.2f%%", r.Labels[0], ana, mc)
		}
	}
	// The analytic mode of Poisson(6) sits at k=5/6 with ~16% mass.
	if y := val(t, tab, "C=6 analytic", "6"); y < 13 || y > 18 {
		t.Fatalf("analytic P[k=6] = %.2f%%", y)
	}
}

func TestFigure4HeadlineNumber(t *testing.T) {
	tab := figure4([]float64{1, 2, 3, 4, 5, 6}, 100, 50000, 4)
	ana, mc := column(t, tab, "analytic e^-C"), column(t, tab, "simulated (n=100)")
	// Paper: "When C = 6 ... the probability is only 0.25%."
	last := len(ana) - 1
	if math.Abs(ana[last]-0.248) > 0.02 {
		t.Fatalf("analytic P[none|C=6] = %.3f%%", ana[last])
	}
	if math.Abs(mc[last]-ana[last]) > 0.25 {
		t.Fatalf("simulated %.3f%% vs analytic %.3f%%", mc[last], ana[last])
	}
	// Strictly decreasing in C (exponential decay).
	for i := 1; i < len(ana); i++ {
		if ana[i] >= ana[i-1] {
			t.Fatal("analytic curve not decreasing")
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	tab, err := figure6([]int{1, 8, 64}, 5, 1) // few runs keep the test quick
	if err != nil {
		t.Fatal(err)
	}
	y := column(t, tab, tab.Cols[0].Head)
	if len(y) != 3 {
		t.Fatalf("points %d", len(y))
	}
	// Paper Figure 6: buffering time decreases as more members hold the
	// message initially; k=1 sits near ~100 ms, k=64 near T=40 ms.
	if !(y[0] > y[1] && y[1] > y[2]) {
		t.Fatalf("buffering time not decreasing: %v", y)
	}
	if y[0] < 60 || y[0] > 200 {
		t.Fatalf("k=1 buffering time %.1f ms, expected ~100 ms", y[0])
	}
	if y[2] < 40 || y[2] > 70 {
		t.Fatalf("k=64 buffering time %.1f ms, expected slightly above T=40 ms", y[2])
	}
}

func TestFigure7Shape(t *testing.T) {
	tab, err := figure7(100, 5, time.Millisecond, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	received, buffered := column(t, tab, "#received"), column(t, tab, "#buffered")
	if len(received) == 0 {
		t.Fatal("no samples")
	}
	last := len(received) - 1
	// All 100 members eventually receive the message.
	if received[last] != 100 {
		t.Fatalf("received at end = %v", received[last])
	}
	// Received is monotone non-decreasing.
	for i := 1; i <= last; i++ {
		if received[i] < received[i-1] {
			t.Fatal("received series decreased")
		}
	}
	// Buffered rises with received early on, then collapses once the
	// region is repaired (C=0: everything is eventually discarded).
	peak := 0.0
	for _, b := range buffered {
		peak = max(peak, b)
	}
	if peak < 50 {
		t.Fatalf("peak buffered %v, expected most receivers to buffer", peak)
	}
	if buffered[last] != 0 {
		t.Fatalf("buffered at end = %v, want 0", buffered[last])
	}
}

func TestSearchZeroWhenEveryoneBuffers(t *testing.T) {
	ms, failed, err := searchTime(20, 20, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("failed runs %d", failed)
	}
	if ms != 0 {
		t.Fatalf("search time %.2f ms with all members buffering, want 0", ms)
	}
}

func TestSearchTimeDecreasesWithBufferers(t *testing.T) {
	few, fewFailed, err := searchTime(100, 1, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	many, manyFailed, err := searchTime(100, 10, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fewFailed != 0 || manyFailed != 0 {
		t.Fatalf("failed runs: %d, %d", fewFailed, manyFailed)
	}
	if few <= many {
		t.Fatalf("search time with 1 bufferer (%.1f ms) not greater than with 10 (%.1f ms)", few, many)
	}
}

func TestSearchSublinearInRegionSize(t *testing.T) {
	small, _, err := searchTime(100, 10, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := searchTime(1000, 10, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	ratio := large / small
	// Paper: 10x region growth → ~2.2x search time. Accept a generous band
	// around sub-linear growth.
	if ratio >= 5 {
		t.Fatalf("search time ratio %.2f for 10x region growth, expected sub-linear (~2.2)", ratio)
	}
	if ratio <= 1 {
		t.Fatalf("search time did not grow with region size (ratio %.2f)", ratio)
	}
}

func TestRunSearchValidation(t *testing.T) {
	if _, _, err := searchTime(10, 0, 1, 0); err == nil {
		t.Fatal("bufferers=0 accepted")
	}
	if _, _, err := searchTime(10, 11, 1, 0); err == nil {
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

// TestProbNoRequestSanity checks the §3.1 feedback formula against a live
// region: of n = 100 members a fraction p start recovery at t = 0 and the
// rest hold the message. Each first-round local request goes to a uniform
// live peer (localAttempt), the formula's model, so the share of holders
// that no first-round request targets estimates ProbNoRequest(n, p):
// about 60 % at p = 0.5.
func TestProbNoRequestSanity(t *testing.T) {
	const n, p, trials = 100, 0.5, 20
	topo, err := topology.SingleRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	missing := int(p * n)
	var holders, unasked int
	for trial := range trials {
		mem := &trace.Memory{}
		c, err := NewCluster(ClusterConfig{Topo: topo, Seed: uint64(trial) + 1, Tracer: mem})
		if err != nil {
			t.Fatal(err)
		}
		perm := c.Root.Perm(n)
		for _, k := range perm[missing:] {
			c.Members[k].InjectDeliver(id, []byte("p"))
		}
		for _, k := range perm[:missing] {
			c.Members[k].StartRecovery(id)
		}
		asked := map[topology.NodeID]bool{}
		for _, e := range mem.Filter(trace.LocalReq) {
			if e.N == 1 {
				asked[e.Peer] = true
			}
		}
		for _, k := range perm[missing:] {
			holders++
			if !asked[topology.NodeID(k)] {
				unasked++
			}
		}
	}
	// Within a trial the holders' outcomes are negatively correlated (a
	// request that lands on one holder misses the rest), so the binomial
	// standard deviation over all holders bounds the spread; allow four.
	want := analytic.ProbNoRequest(n, p)
	got := float64(unasked) / float64(holders)
	if sd := math.Sqrt(want * (1 - want) / float64(holders)); math.Abs(got-want) > 4*sd {
		t.Fatalf("%d of %d holders saw no first-round request (%.3f), want ProbNoRequest(%d, %v) = %.3f ± %.3f",
			unasked, holders, got, n, p, want, 4*sd)
	}
	t.Logf("%d of %d holders saw no first-round request (%.3f); ProbNoRequest(%d, %v) = %.3f", unasked, holders, got, n, p, want)
}
