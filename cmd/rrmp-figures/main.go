// Command rrmp-figures regenerates every figure in the paper's evaluation
// (§4) and the DESIGN.md ablations, printing the series as aligned text
// tables.
//
// Usage:
//
//	rrmp-figures [-fig 3|4|6|7|8|9|A1|A2|A3|A4|A5|A6|A7|A8|all] [-runs N] [-seed S]
//	             [-trials N] [-parallel P]
//
// Run counts trade precision for time; the defaults regenerate each figure
// in a few seconds. Output units match the paper's axes (milliseconds,
// percent). With -trials > 1, the ablations that have multi-trial variants
// (A1, A5) rerun the whole experiment across independently seeded parallel
// trials and print every column as mean ± 95% CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,6,7,8,9,A1..A8 or all")
	runs := flag.Int("runs", 0, "runs to average per data point (0 = per-figure default)")
	seed := flag.Uint64("seed", 1, "root random seed")
	trials := flag.Int("trials", 1, "independently seeded trials for A1/A5 (columns become mean±95% CI)")
	parallel := flag.Int("parallel", 0, "worker pool size for -trials (0 = GOMAXPROCS)")
	flag.Parse()

	if err := run(os.Stdout, *fig, *runs, *seed, *trials, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "rrmp-figures:", err)
		os.Exit(1)
	}
}

// run regenerates the requested figures, writing every table to w (tests
// capture a buffer; main passes os.Stdout).
func run(w io.Writer, fig string, runs int, seed uint64, trials, parallel int) error {
	opt := exp.Options{Trials: trials, Parallel: parallel, BaseSeed: seed}
	want := func(name string) bool { return fig == "all" || strings.EqualFold(fig, name) }
	or := func(def int) int {
		if runs > 0 {
			return runs
		}
		return def
	}
	any := false

	if want("3") {
		any = true
		header(w, "Figure 3 — P(k long-term bufferers), region n=100")
		series := runner.Figure3([]float64{5, 6, 7, 8}, 100, 20*or(1000), seed)
		printSeriesTable(w, "k", series)
	}
	if want("4") {
		any = true
		header(w, "Figure 4 — P(no long-term bufferer) vs C (percent)")
		series := runner.Figure4([]float64{1, 2, 3, 4, 5, 6}, 100, 100*or(1000), seed)
		printSeriesTable(w, "C", series)
	}
	if want("6") {
		any = true
		header(w, "Figure 6 — mean buffering time vs #initial holders (n=100, T=40ms)")
		cfg := runner.DefaultFig6Config()
		cfg.Runs, cfg.Seed = or(20), seed
		s, err := runner.Figure6(cfg)
		if err != nil {
			return err
		}
		printSeriesTable(w, "#holders", []runner.Series{s})
	}
	if want("7") {
		any = true
		header(w, "Figure 7 — #received vs #buffered over time (1 initial holder, n=100)")
		// The horizon runs past the paper's 140 ms x-range so the buffered
		// count's collapse to zero is visible in full.
		s, err := runner.Figure7(100, seed, time.Millisecond, 250*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10s %10s %10s\n", "t(ms)", "#received", "#buffered")
		for i := range s.TimesMs {
			if i%5 != 0 && i != len(s.TimesMs)-1 {
				continue // print every 5 ms
			}
			fmt.Fprintf(w, "%10.0f %10d %10d\n", s.TimesMs[i], s.Received[i], s.Buffered[i])
		}
	}
	if want("8") {
		any = true
		header(w, "Figure 8 — search time vs #bufferers (n=100)")
		s, err := runner.Figure8(or(100), seed)
		if err != nil {
			return err
		}
		printSeriesTable(w, "#bufferers", []runner.Series{s})
	}
	if want("9") {
		any = true
		header(w, "Figure 9 — search time vs region size (B=10)")
		s, err := runner.Figure9(or(100), seed)
		if err != nil {
			return err
		}
		printSeriesTable(w, "region", []runner.Series{s})
	}
	if want("A1") {
		any = true
		header(w, "Ablation A1 — buffering policy cost (n=100, 30 msgs, 10% loss)")
		if trials > 1 {
			rows, err := runner.AblationPoliciesTrials(opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d trials; every column is mean ± 95%% CI\n", trials)
			fmt.Fprintf(w, "%-18s %16s %20s %12s %18s\n", "policy", "delivery", "buf(msg·s)", "peak", "mean-buf(ms)")
			for _, r := range rows {
				fmt.Fprintf(w, "%-18s %7.2f±%.2f%% %14.1f±%.1f %7.1f±%.1f %12.1f±%.1f\n",
					r.Policy,
					100*r.DeliveryRatio.Mean, 100*r.DeliveryRatio.CI95,
					r.BufferIntegral.Mean, r.BufferIntegral.CI95,
					r.PeakPerMember.Mean, r.PeakPerMember.CI95,
					r.MeanBufferingMs.Mean, r.MeanBufferingMs.CI95)
			}
		} else {
			rows, err := runner.AblationPolicies(seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-18s %10s %14s %8s %12s\n", "policy", "delivery", "buf(msg·s)", "peak", "mean-buf(ms)")
			for _, r := range rows {
				fmt.Fprintf(w, "%-18s %9.2f%% %14.1f %8d %12.1f\n",
					r.Policy, 100*r.DeliveryRatio, r.BufferIntegral, r.PeakPerMember, r.MeanBufferingMs)
			}
		}
	}
	if want("A2") {
		any = true
		header(w, "Ablation A2 — buffering load balance, RRMP vs tree repair server")
		rows, err := runner.AblationLoadBalance(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %-18s %12s %12s %10s %10s\n", "protocol", "topology", "mean(B·s)", "max(B·s)", "max/mean", "max-share")
		for _, r := range rows {
			fmt.Fprintf(w, "%-20s %-18s %12.0f %12.0f %10.1f %9.0f%%\n",
				r.Protocol, r.Topology, r.MeanIntegral, r.MaxIntegral, r.Imbalance, 100*r.MaxShare)
		}
		fmt.Fprintln(w, "(max-share is the most-burdened member's share of its region's byte-time cost)")
	}
	if want("A3") {
		any = true
		header(w, "Ablation A3 — search reply implosion (replies per remote request)")
		rows, err := runner.AblationSearchImplosion(or(10), seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %10s %12s\n", "mode", "#holders", "replies")
		for _, r := range rows {
			fmt.Fprintf(w, "%-18s %10d %12.1f\n", r.Mode, r.Holders, r.RepliesPerEpisode)
		}
	}
	if want("A4") {
		any = true
		header(w, "Ablation A4 — churn: graceful handoff vs crash of all bufferers")
		rows, err := runner.AblationChurn(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %10s %14s %10s\n", "mode", "recovered", "recovery(ms)", runner.MKHandoffs)
		for _, r := range rows {
			fmt.Fprintf(w, "%-18s %10v %14.1f %10d\n", r.Mode, r.Recovered, r.RecoveryMs, r.Handoffs)
		}
	}
	if want("A5") {
		any = true
		header(w, "Ablation A5 — remote recovery λ sweep (region-wide loss, 50 members)")
		lambdas := []float64{0.5, 1, 2, 4, 8}
		if trials > 1 {
			rows, err := runner.AblationLambdaTrials(lambdas, or(10), opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d trials; every column is mean ± 95%% CI\n", trials)
			fmt.Fprintf(w, "%8s %18s %18s\n", "lambda", "remote-reqs", "recovery(ms)")
			for _, r := range rows {
				fmt.Fprintf(w, "%8.1f %12.1f±%.1f %12.1f±%.1f\n",
					r.Lambda, r.RemoteRequests.Mean, r.RemoteRequests.CI95,
					r.RecoveryMs.Mean, r.RecoveryMs.CI95)
			}
		} else {
			rows, err := runner.AblationLambda(lambdas, or(10), seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8s %14s %14s\n", "lambda", "remote-reqs", "recovery(ms)")
			for _, r := range rows {
				fmt.Fprintf(w, "%8.1f %14.1f %14.1f\n", r.Lambda, r.RemoteRequests, r.RecoveryMs)
			}
		}
	}
	if want("A6") {
		any = true
		header(w, "Ablation A6 — control traffic: implicit feedback vs stability digests")
		rows, err := runner.AblationStabilityTraffic(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %14s %14s %14s %10s\n", "scheme", "digest(B)", "control(B)", "buf(msg·s)", "delivery")
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s %14d %14d %14.1f %9.2f%%\n",
				r.Scheme, r.DigestBytes, r.ControlBytes, r.BufferIntegral, 100*r.DeliveryRatio)
		}
	}
	if want("A7") {
		any = true
		header(w, "Ablation A7 — VoD prefix-push: late joiners vs buffering policy")
		rows, err := runner.AblationVoDPrefixPush(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10s %14s %10s %12s %14s\n",
			"policy", "delivery", runner.MKUnrecoverable, "joiners", "catchup(ms)", "buffer(B·s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %9.2f%% %14.0f %10.0f %12.1f %14.0f\n",
				r.Policy, 100*r.Delivery, r.Unrecoverable, r.LateJoiners, r.CatchupMs, r.ByteIntegral)
		}
		fmt.Fprintln(w, "(joiners arrive 1.5-2.5s in; only the two-phase long-term set still holds the prefix)")
	}
	if want("A8") {
		any = true
		header(w, "Ablation A8 — bursty demand: adaptive vs two-phase vs fixed (fitness-ranked)")
		rows, err := runner.AblationAdaptiveDemand(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10s %10s %14s %13s %14s\n",
			"policy", "fitness", "delivery", runner.MKUnrecoverable, "recovery(ms)", "buffer(B·s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %10.3f %9.2f%% %14.0f %13.1f %14.0f\n",
				r.Policy, r.Fitness, 100*r.Delivery, r.Unrecoverable, r.RecoveryMs, r.ByteIntegral)
		}
		fmt.Fprintln(w, "(rows ranked by the default-weight fitness score; costs normalized within the table)")
	}
	if !any {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("-", len(title)))
}

// printSeriesTable prints multiple series sharing an x axis.
func printSeriesTable(w io.Writer, xName string, series []runner.Series) {
	fmt.Fprintf(w, "%12s", xName)
	for _, s := range series {
		fmt.Fprintf(w, " %26s", s.Name)
	}
	fmt.Fprintln(w)
	if len(series) == 0 || len(series[0].X) == 0 {
		return
	}
	for i := range series[0].X {
		fmt.Fprintf(w, "%12g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(w, " %26.2f", s.Y[i])
			}
		}
		fmt.Fprintln(w)
	}
}
