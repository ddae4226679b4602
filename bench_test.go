// Benchmarks regenerating every figure in the paper's evaluation (§4) plus
// the DESIGN.md ablations. Each bench runs the complete experiment per
// iteration and reports the figure's headline quantity through
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report. cmd/rrmp-figures prints the full series.
package repro_test

import (
	"testing"
	"time"

	"repro"
	"repro/internal/runner"
)

// BenchmarkFigure3 regenerates Figure 3 (the Poisson distribution of
// long-term bufferers) and reports the Monte Carlo mass at k=C for C=6.
func BenchmarkFigure3(b *testing.B) {
	var atMode float64
	for i := 0; i < b.N; i++ {
		series := runner.Figure3([]float64{5, 6, 7, 8}, 100, 20000, uint64(i)+1)
		// series[3] is "C=6 simulated"; X index 6 is k=6.
		atMode = series[3].Y[6]
	}
	b.ReportMetric(atMode, "%mass@k=6,C=6")
}

// BenchmarkFigure4 regenerates Figure 4 and reports the simulated
// probability (%) that an idle message has no long-term bufferer at C=6
// (paper: 0.25%).
func BenchmarkFigure4(b *testing.B) {
	var atC6 float64
	for i := 0; i < b.N; i++ {
		series := runner.Figure4([]float64{1, 2, 3, 4, 5, 6}, 100, 100000, uint64(i)+1)
		atC6 = series[1].Y[len(series[1].Y)-1]
	}
	b.ReportMetric(atC6, "%none@C=6")
}

// BenchmarkFigure6 regenerates Figure 6 and reports mean buffering time at
// the extremes (paper: ~100 ms at k=1 falling to ~45 ms at k=64).
func BenchmarkFigure6(b *testing.B) {
	var k1, k64 float64
	for i := 0; i < b.N; i++ {
		cfg := runner.DefaultFig6Config()
		cfg.Runs, cfg.Seed = 10, uint64(i)+1
		s, err := runner.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		k1, k64 = s.Y[0], s.Y[len(s.Y)-1]
	}
	b.ReportMetric(k1, "ms@k=1")
	b.ReportMetric(k64, "ms@k=64")
}

// BenchmarkFigure7 regenerates Figure 7 and reports when the buffered
// count collapses to zero after the region is repaired.
func BenchmarkFigure7(b *testing.B) {
	var emptyAt float64
	for i := 0; i < b.N; i++ {
		s, err := runner.Figure7(100, uint64(i)+1, time.Millisecond, 250*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		emptyAt = s.TimesMs[len(s.TimesMs)-1]
		for j := len(s.Buffered) - 1; j >= 0; j-- {
			if s.Buffered[j] != 0 {
				break
			}
			emptyAt = s.TimesMs[j]
		}
	}
	b.ReportMetric(emptyAt, "ms-to-empty")
}

// BenchmarkFigure8 regenerates Figure 8 and reports mean search times at 1
// and 10 bufferers (paper: ~45 ms and ~20 ms).
func BenchmarkFigure8(b *testing.B) {
	var b1, b10 float64
	for i := 0; i < b.N; i++ {
		s, err := runner.Figure8(30, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b1, b10 = s.Y[0], s.Y[len(s.Y)-1]
	}
	b.ReportMetric(b1, "ms@B=1")
	b.ReportMetric(b10, "ms@B=10")
}

// BenchmarkFigure9 regenerates Figure 9 and reports the search-time growth
// factor from n=100 to n=1000 (paper: ~2.2×).
func BenchmarkFigure9(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := runner.Figure9(30, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = s.Y[len(s.Y)-1] / s.Y[0]
	}
	b.ReportMetric(ratio, "x-growth-100to1000")
}

// BenchmarkAblationPolicies (A1) reports the buffer-space ratio of
// buffer-all to the paper's two-phase policy.
func BenchmarkAblationPolicies(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.AblationPolicies(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		var twoPhase, all float64
		for _, r := range rows {
			switch r.Policy {
			case "two-phase C=6":
				twoPhase = r.BufferIntegral
			case "buffer-all":
				all = r.BufferIntegral
			}
		}
		ratio = all / twoPhase
	}
	b.ReportMetric(ratio, "x-bufferall-vs-twophase")
}

// BenchmarkAblationLoadBalance (A2) reports the most-burdened member's
// share of total buffering under both protocols.
func BenchmarkAblationLoadBalance(b *testing.B) {
	var rrmpShare, treeShare float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.AblationLoadBalance(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		rrmpShare, treeShare = rows[0].MaxShare, rows[1].MaxShare
	}
	b.ReportMetric(100*rrmpShare, "%maxshare-rrmp")
	b.ReportMetric(100*treeShare, "%maxshare-tree")
}

// BenchmarkAblationSearchImplosion (A3) reports replies per episode for
// both search designs at 90 holders.
func BenchmarkAblationSearchImplosion(b *testing.B) {
	var walk, query float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.AblationSearchImplosion(10, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Holders != 90 {
				continue
			}
			if r.Mode == "random-walk" {
				walk = r.RepliesPerEpisode
			} else {
				query = r.RepliesPerEpisode
			}
		}
	}
	b.ReportMetric(walk, "replies-walk@90")
	b.ReportMetric(query, "replies-query@90")
}

// BenchmarkAblationChurn (A4) reports straggler recovery latency after a
// graceful handoff (crash mode never recovers, reported as -1).
func BenchmarkAblationChurn(b *testing.B) {
	var gracefulMs, crashRecovered float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.AblationChurn(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mode == "graceful-handoff" {
				gracefulMs = r.RecoveryMs
			} else if r.Recovered {
				crashRecovered = 1
			}
		}
	}
	b.ReportMetric(gracefulMs, "ms-recovery-graceful")
	b.ReportMetric(crashRecovered, "crash-recovered(0=lost)")
}

// BenchmarkAblationLambda (A5) reports remote requests and recovery time at
// λ=1 (the paper's default).
func BenchmarkAblationLambda(b *testing.B) {
	var reqs, ms float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.AblationLambda([]float64{1}, 10, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		reqs, ms = rows[0].RemoteRequests, rows[0].RecoveryMs
	}
	b.ReportMetric(reqs, "remote-reqs@lambda=1")
	b.ReportMetric(ms, "ms-region-recovery")
}

// BenchmarkAblationStabilityTraffic (A6) reports the digest bytes the
// stability baseline pays that RRMP's implicit feedback does not.
func BenchmarkAblationStabilityTraffic(b *testing.B) {
	var digestKB float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.AblationStabilityTraffic(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		digestKB = float64(rows[1].DigestBytes) / 1024
	}
	b.ReportMetric(digestKB, "KB-digests-stability")
}

// BenchmarkPublishThroughput measures raw simulator throughput: events per
// published message on a lossless 100-member region (engineering metric,
// not a paper figure).
func BenchmarkPublishThroughput(b *testing.B) {
	g, err := repro.NewGroup(repro.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Publish(make([]byte, 64))
		g.Run(0)
	}
}
