package repro_test

import (
	"testing"
	"time"

	"repro"
)

func TestGroupDefaults(t *testing.T) {
	g, err := repro.NewGroup()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMembers() != 100 || g.NumRegions() != 1 {
		t.Fatalf("members=%d regions=%d", g.NumMembers(), g.NumRegions())
	}
	id := g.Publish([]byte("hello"))
	g.Run(time.Second)
	if got := g.CountReceived(id); got != 100 {
		t.Fatalf("received %d/100 on a lossless network", got)
	}
}

func TestGroupRecoversUnderLoss(t *testing.T) {
	params := repro.DefaultParams()
	params.C = 40 // guarantee long-term bufferers for certainty
	g, err := repro.NewGroup(
		repro.WithRegions(40),
		repro.WithDataLoss(0.3),
		repro.WithSeed(7),
		repro.WithParams(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	var ids []repro.MessageID
	for i := 0; i < 5; i++ {
		i := i
		g.At(time.Duration(i)*20*time.Millisecond, func() {
			ids = append(ids, g.Publish([]byte{byte(i)}))
		})
	}
	g.Run(3 * time.Second)
	for _, id := range ids {
		if got := g.CountReceived(id); got != 40 {
			t.Fatalf("message %v received by %d/40", id, got)
		}
	}
	s := g.Stats()
	if s.LocalRequests == 0 {
		t.Fatal("no recovery traffic despite 30% loss")
	}
	if s.MeanRecoveryMs <= 0 {
		t.Fatal("recovery latency not recorded")
	}
}

func TestGroupMultiRegion(t *testing.T) {
	g, err := repro.NewGroup(repro.WithRegions(10, 10, 10), repro.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRegions() != 3 {
		t.Fatalf("regions = %d", g.NumRegions())
	}
	id := g.Publish([]byte("multi"))
	g.Run(2 * time.Second)
	if got := g.CountReceived(id); got != 30 {
		t.Fatalf("received %d/30", got)
	}
}

func TestGroupStar(t *testing.T) {
	g, err := repro.NewGroup(repro.WithStar(5, 5, 5), repro.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	id := g.Publish([]byte("star"))
	g.Run(2 * time.Second)
	if got := g.CountReceived(id); got != 15 {
		t.Fatalf("received %d/15", got)
	}
}

func TestGroupPolicies(t *testing.T) {
	for _, kind := range []repro.PolicyKind{
		repro.PolicyTwoPhase, repro.PolicyFixedHold, repro.PolicyBufferAll, repro.PolicyHashElect,
	} {
		g, err := repro.NewGroup(repro.WithRegions(10), repro.WithPolicy(kind), repro.WithSeed(5))
		if err != nil {
			t.Fatalf("policy %d: %v", kind, err)
		}
		id := g.Publish([]byte("p"))
		g.Run(2 * time.Second)
		if got := g.CountReceived(id); got != 10 {
			t.Fatalf("policy %d: received %d/10", kind, got)
		}
		if kind == repro.PolicyBufferAll && g.CountBuffered(id) != 10 {
			t.Fatal("buffer-all discarded")
		}
	}
}

func TestGroupInvalidOptions(t *testing.T) {
	if _, err := repro.NewGroup(repro.WithRegions()); err == nil {
		t.Fatal("empty regions accepted")
	}
	if _, err := repro.NewGroup(repro.WithRegions(0)); err == nil {
		t.Fatal("zero-size region accepted")
	}
}

func TestGroupLeaveAndCrash(t *testing.T) {
	g, err := repro.NewGroup(repro.WithRegions(10), repro.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	id := g.Publish([]byte("x"))
	g.Run(500 * time.Millisecond)
	g.Leave(3)
	g.Crash(4)
	id2 := g.Publish([]byte("y"))
	g.Run(time.Second)
	if g.Member(3).HasReceived(id2) || g.Member(4).HasReceived(id2) {
		t.Fatal("departed members processed new traffic")
	}
	_ = id
}

func TestGroupDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		g, err := repro.NewGroup(repro.WithRegions(20), repro.WithDataLoss(0.2), repro.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		g.StartSessions()
		g.Publish([]byte("d"))
		g.Run(time.Second)
		return g.TotalPacketsSent(), g.Stats().Delivered
	}
	p1, d1 := run()
	p2, d2 := run()
	if p1 != p2 || d1 != d2 {
		t.Fatalf("same seed diverged: packets %d vs %d, delivered %d vs %d", p1, p2, d1, d2)
	}
}

func TestGroupBurstLoss(t *testing.T) {
	params := repro.DefaultParams()
	params.C = 20
	g, err := repro.NewGroup(
		repro.WithRegions(20),
		repro.WithBurstDataLoss(0.2),
		repro.WithSeed(8),
		repro.WithParams(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	id := g.Publish([]byte("burst"))
	g.Run(3 * time.Second)
	if got := g.CountReceived(id); got != 20 {
		t.Fatalf("received %d/20 under burst loss", got)
	}
}

// TestGroupByteBudget drives the facade's byte-budget path: a binding
// budget produces pressure evictions and the byte stats surface through
// GroupStats, while delivery losses stay explicitly counted.
func TestGroupByteBudget(t *testing.T) {
	g, err := repro.NewGroup(
		repro.WithRegions(10),
		repro.WithSeed(3),
		repro.WithDataLoss(0.1),
		repro.WithByteBudget(2048),
		repro.WithCopyOnStore(),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	for i := 0; i < 10; i++ {
		i := i
		g.At(time.Duration(i)*20*time.Millisecond, func() { g.Publish(make([]byte, 512)) })
	}
	g.Run(3 * time.Second)
	s := g.Stats()
	if s.PressureEvictions == 0 {
		t.Fatal("a 2 KB budget under a 5 KB workload produced no pressure evictions")
	}
	if s.PeakBufferedBytes == 0 || s.PeakBufferedBytes > 2048 {
		t.Fatalf("peak buffered bytes %d outside (0, 2048]", s.PeakBufferedBytes)
	}
	if s.ByteIntegral <= 0 {
		t.Fatal("byte integral not accumulated")
	}
}

// TestGroupMatchesScenarioKernel is the facade≡kernel check: a Group and a
// RunScenario cell given the same topology, loss model, seed and publish
// timeline are the same run — they drop the same DATA packets (one loss
// constructor, one stream label) and so report the same numbers.
func TestGroupMatchesScenarioKernel(t *testing.T) {
	const seed, loss = 11, 0.2
	regions := []int{30, 30}
	cases := []struct {
		name  string
		burst bool
		mode  string
		opt   repro.Option
	}{
		{"bernoulli", false, "", repro.WithDataLoss(loss)},
		{"burst", true, "", repro.WithBurstDataLoss(loss)},
		{"hash", false, "hash", repro.WithHashDataLoss(loss)},
		{"hash-burst", true, "hash", repro.WithHashBurstLoss(loss)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := repro.Scenario{
				Regions: regions, Loss: loss, Burst: tc.burst, LossMode: tc.mode,
				Policy: "two-phase", Msgs: 12, Gap: 20 * time.Millisecond, Horizon: 4 * time.Second,
			}
			want, err := repro.RunScenario(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := repro.ScenarioTimeline(sc, seed)
			if err != nil {
				t.Fatal(err)
			}

			g, err := repro.NewGroup(repro.WithRegions(regions...), repro.WithSeed(seed), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			g.StartSessions()
			payload := make([]byte, tl.MaxBytes())
			for _, ev := range tl {
				ev := ev
				g.At(ev.At, func() { g.Publish(payload[:ev.Bytes]) })
			}
			g.RunUntil(sc.Horizon)
			st := g.Stats()

			got := map[string]float64{
				"delivery_ratio":         float64(st.Delivered) / float64(g.NumMembers()*sc.Msgs),
				"duplicates":             float64(st.Duplicates),
				"packets_sent":           float64(g.TotalPacketsSent()),
				"buffer_integral_msgsec": st.BufferIntegral,
			}
			for k, v := range got {
				if w, ok := want[k]; !ok || w != v {
					t.Errorf("%s: Group %v, RunScenario %v", k, v, w)
				}
			}
			if want["delivery_ratio"] == 0 || want["packets_sent"] == 0 {
				t.Fatalf("degenerate cell: %v", want)
			}
		})
	}
}
