package repro_test

import (
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/runner"
	"repro/internal/workload"
)

// region is a one-region deployment of n members.
func region(n int) repro.Scenario { return repro.Scenario{Regions: []int{n}} }

func TestGroupDefaults(t *testing.T) {
	g, err := repro.NewGroup(repro.GroupConfig{Scenario: region(100), Seed: 1})
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
	g, err := repro.NewGroup(repro.GroupConfig{
		// C = 40 guarantees long-term bufferers for certainty.
		Scenario: repro.Scenario{Regions: []int{40}, Loss: 0.3, C: 40},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	var ids []repro.MessageID
	for i := 0; i < 5; i++ {
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
	g, err := repro.NewGroup(repro.GroupConfig{Scenario: repro.Scenario{Regions: []int{10, 10, 10}}, Seed: 3})
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
	g, err := repro.NewGroup(repro.GroupConfig{Scenario: repro.Scenario{Regions: []int{5, 5, 5}, Star: true}, Seed: 4})
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
	for _, policy := range []string{"two-phase", "fixed", "all", "hash"} {
		sc := region(10)
		sc.Policy = policy
		g, err := repro.NewGroup(repro.GroupConfig{Scenario: sc, Seed: 5})
		if err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		id := g.Publish([]byte("p"))
		g.Run(2 * time.Second)
		if got := g.CountReceived(id); got != 10 {
			t.Fatalf("policy %s: received %d/10", policy, got)
		}
		if policy == "all" && g.CountBuffered(id) != 10 {
			t.Fatal("buffer-all discarded")
		}
	}
}

func TestGroupInvalidOptions(t *testing.T) {
	for name, cfg := range map[string]repro.GroupConfig{
		"empty regions":     {},
		"zero-size region":  {Scenario: region(0)},
		"unknown policy":    {Scenario: repro.Scenario{Regions: []int{10}, Policy: "nope"}},
		"unknown loss mode": {Scenario: repro.Scenario{Regions: []int{10}, Loss: 0.1, LossMode: "nope"}},
		"blackout range":    {Scenario: region(10), Blackout: []int{1}},
	} {
		if _, err := repro.NewGroup(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestGroupRejectsScriptFields: a Group is driven by its caller, so every
// Scenario field that scripts a kernel run — another protocol, the publish
// stream, the fault timeline — is an error naming the field, never
// silently ignored.
func TestGroupRejectsScriptFields(t *testing.T) {
	for field, set := range map[string]func(*repro.Scenario){
		"Protocol":     func(sc *repro.Scenario) { sc.Protocol = "rmtp" },
		"Churn":        func(sc *repro.Scenario) { sc.Churn = 1 },
		"Crash":        func(sc *repro.Scenario) { sc.Crash = 1 },
		"CrashRecover": func(sc *repro.Scenario) { sc.CrashRecover = time.Second },
		"PartitionAt":  func(sc *repro.Scenario) { sc.PartitionAt = time.Second },
		"PartitionDur": func(sc *repro.Scenario) { sc.PartitionDur = time.Second },
		"Msgs":         func(sc *repro.Scenario) { sc.Msgs = 5 },
		"Gap":          func(sc *repro.Scenario) { sc.Gap = time.Millisecond },
		"Horizon":      func(sc *repro.Scenario) { sc.Horizon = time.Second },
		"PayloadBytes": func(sc *repro.Scenario) { sc.PayloadBytes = 64 },
		"PayloadModel": func(sc *repro.Scenario) { sc.PayloadModel = "uniform" },
		"Workload":     func(sc *repro.Scenario) { sc.Workload = &workload.Spec{} },
	} {
		sc := region(10)
		set(&sc)
		_, err := repro.NewGroup(repro.GroupConfig{Scenario: sc, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "Scenario."+field+" ") {
			t.Errorf("%s: err = %v, want one naming Scenario.%s", field, err, field)
		}
	}
	for _, proto := range []string{"", "rrmp"} {
		sc := region(10)
		sc.Protocol = proto
		if _, err := repro.NewGroup(repro.GroupConfig{Scenario: sc, Seed: 1}); err != nil {
			t.Errorf("Protocol %q: %v", proto, err)
		}
	}
}

// TestGroupTuneKeepsDefaults: Tune adjusts the parameters the scenario
// declares, so changing one field leaves every other at the paper's
// default — in particular C, without which no member is ever elected for
// long-term buffering.
func TestGroupTuneKeepsDefaults(t *testing.T) {
	longTerm := func(tune func(*repro.Params)) int {
		g, err := repro.NewGroup(repro.GroupConfig{Scenario: region(50), Seed: 1, Tune: tune})
		if err != nil {
			t.Fatal(err)
		}
		g.Publish([]byte("x"))
		g.Run(500 * time.Millisecond)
		return g.Stats().LongTermEntries
	}
	want := longTerm(nil)
	if want != 9 {
		t.Fatalf("untuned group holds %d long-term copies, want 9", want)
	}
	if got := longTerm(func(p *repro.Params) { p.IntraRTT = repro.DefaultParams().IntraRTT }); got != want {
		t.Fatalf("tuning IntraRTT alone leaves %d long-term copies, want %d", got, want)
	}
}

func TestGroupLeaveAndCrash(t *testing.T) {
	g, err := repro.NewGroup(repro.GroupConfig{Scenario: region(10), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	g.Publish([]byte("x"))
	g.Run(500 * time.Millisecond)
	g.Leave(3)
	g.Crash(4)
	id2 := g.Publish([]byte("y"))
	g.Run(time.Second)
	if g.Member(3).HasReceived(id2) || g.Member(4).HasReceived(id2) {
		t.Fatal("departed members processed new traffic")
	}
}

func TestGroupDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		g, err := repro.NewGroup(repro.GroupConfig{Scenario: repro.Scenario{Regions: []int{20}, Loss: 0.2}, Seed: 42})
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
	g, err := repro.NewGroup(repro.GroupConfig{
		Scenario: repro.Scenario{Regions: []int{20}, Loss: 0.2, Burst: true, C: 20},
		Seed:     8,
	})
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
	g, err := repro.NewGroup(repro.GroupConfig{
		Scenario: repro.Scenario{Regions: []int{10}, Loss: 0.1, ByteBudget: 2048},
		Seed:     3,
		Tune:     func(p *repro.Params) { p.CopyOnStore = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	for i := 0; i < 10; i++ {
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
// RunScenario cell given the same deployment, seed and publish timeline
// are the same run — one topology, loss, parameter and policy constructor
// each — and so report the same numbers on every key GroupStats has. Every
// other key the kernel reports must be a fact no member holds, so a new
// member sum the facade cannot report fails here.
func TestGroupMatchesScenarioKernel(t *testing.T) {
	const seed = 11
	cell := func(edit func(*repro.Scenario)) repro.Scenario {
		sc := repro.Scenario{Regions: []int{30, 30}, Loss: 0.2}
		edit(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   repro.Scenario
	}{
		{"bernoulli", cell(func(sc *repro.Scenario) {})},
		{"burst", cell(func(sc *repro.Scenario) { sc.Burst = true })},
		{"hash", cell(func(sc *repro.Scenario) { sc.LossMode = "hash" })},
		{"hash-burst", cell(func(sc *repro.Scenario) { sc.Burst, sc.LossMode = true, "hash" })},
		{"c20", cell(func(sc *repro.Scenario) { sc.C = 20 })},
		{"budget", cell(func(sc *repro.Scenario) { sc.ByteBudget = 2048 })},
		{"fixed", cell(func(sc *repro.Scenario) { sc.Policy, sc.FixedHold = "fixed", 200*time.Millisecond })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.Msgs, sc.Gap, sc.Horizon = 12, 20*time.Millisecond, 4*time.Second
			want, err := runner.RunScenario(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			tl, _, err := runner.TimelineFor(sc, seed)
			if err != nil {
				t.Fatal(err)
			}

			g, err := repro.NewGroup(repro.GroupConfig{Scenario: tc.sc, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			g.StartSessions()
			payload := make([]byte, tl.MaxBytes())
			for _, ev := range tl {
				g.At(ev.At, func() { g.Publish(payload[:ev.Bytes]) })
			}
			g.RunUntil(sc.Horizon)
			st := g.Stats()

			got := map[string]float64{
				runner.MKDeliveryRatio:         float64(st.Delivered) / float64(g.NumMembers()*sc.Msgs),
				runner.MKDuplicates:            float64(st.Duplicates),
				runner.MKPacketsSent:           float64(g.TotalPacketsSent()),
				runner.MKBytesSent:             float64(g.TotalBytesSent()),
				runner.MKRepairs:               float64(st.Repairs),
				runner.MKUnrecoverable:         float64(st.Unrecoverable),
				runner.MKLocalRequests:         float64(st.LocalRequests),
				runner.MKRemoteRequests:        float64(st.RemoteRequests),
				runner.MKRegionalMulticasts:    float64(st.RegionalMulticasts),
				runner.MKHandoffs:              float64(st.Handoffs),
				runner.MKSearches:              float64(st.Searches),
				runner.MKSearchFailures:        float64(st.SearchFailures),
				runner.MKSuspects:              float64(st.Suspects),
				runner.MKLongTermEntries:       float64(st.LongTermEntries),
				runner.MKBufferIntegralMsgSec:  st.BufferIntegral,
				runner.MKBufferIntegralByteSec: st.ByteIntegral,
				runner.MKPeakBuffered:          float64(st.PeakBuffered),
				runner.MKPeakBufferedBytes:     float64(st.PeakBufferedBytes),
				runner.MKPressureEvictions:     float64(st.PressureEvictions),
				runner.MKBudgetDenials:         float64(st.BudgetDenials),
				runner.MKMeanRecoveryMs:        st.MeanRecoveryMs,
				runner.MKMeanBufferingMs:       st.MeanBufferingMs,
				runner.MKMeanReRecoveryMs:      st.MeanReRecoveryMs,
			}
			// The kernel reports the byte-currency keys only for cells
			// that engage a payload or budget axis.
			if sc.ByteBudget == 0 {
				delete(got, runner.MKBufferIntegralByteSec)
				delete(got, runner.MKPeakBufferedBytes)
				delete(got, runner.MKPressureEvictions)
				delete(got, runner.MKBudgetDenials)
			}
			// The kernel omits mean_rerecovery_ms when no member recovered
			// after a crash outage; the facade's mean then reads 0.
			if _, ok := want[runner.MKMeanReRecoveryMs]; !ok && st.MeanReRecoveryMs == 0 {
				delete(got, runner.MKMeanReRecoveryMs)
			}
			for k, v := range got {
				if w, ok := want[k]; !ok || w != v {
					t.Errorf("%s: Group %v, RunScenario %v", k, v, w)
				}
			}
			// Keys that are no member's: the fault timeline, the engine's
			// event count, the network's partition drops and the reach
			// keys, which read who holds each message.
			nonMember := map[string]bool{
				runner.MKLeaves:                true,
				runner.MKCrashes:               true,
				runner.MKEvents:                true,
				runner.MKPartitionDrops:        true,
				runner.MKMinReachFrac:          true,
				runner.MKSurvivorDeliveryRatio: true,
				runner.MKSurvivorMinReachFrac:  true,
			}
			for k := range want {
				if _, compared := got[k]; !compared && !nonMember[k] {
					t.Errorf("%s: the kernel reports it, and the test neither compares it nor lists it as a non-member fact", k)
				}
			}
			if want[runner.MKDeliveryRatio] == 0 || want[runner.MKPacketsSent] == 0 {
				t.Fatalf("degenerate cell: %v", want)
			}
		})
	}
}
