// Command rrmp-figures regenerates every figure in the paper's evaluation
// (§4) and the DESIGN.md ablations, printing each as an aligned text
// table.
//
// Usage:
//
//	rrmp-figures [-fig 3|4|6|7|8|9|A1|A2|A3|A4|A5|A6|A7|A8|all] [-runs N] [-seed S]
//	             [-trials N] [-parallel P]
//
// Run counts trade precision for time; the defaults regenerate each figure
// in a few seconds. Output units match the paper's axes (milliseconds,
// percent). With -trials > 1, each figure reruns across independently
// seeded parallel trials and prints every numeric column as mean ± 95% CI;
// the output does not depend on -parallel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/runner"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,6,7,8,9,A1..A8 or all")
	runs := flag.Int("runs", 0, "runs to average per data point (0 = per-figure default)")
	seed := flag.Uint64("seed", 1, "root random seed")
	trials := flag.Int("trials", 1, "independently seeded trials per figure (columns become mean±95% CI)")
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
	switch {
	case runs < 0:
		return fmt.Errorf("-runs %d: must be 0 (per-figure default) or more", runs)
	case trials < 1:
		return fmt.Errorf("-trials %d: must be at least 1", trials)
	case parallel < 0:
		return fmt.Errorf("-parallel %d: must be 0 (GOMAXPROCS) or more", parallel)
	}
	opt := exp.Options{Trials: trials, Parallel: parallel, BaseSeed: seed}
	ran := false
	for _, f := range runner.Figures {
		if fig != "all" && !strings.EqualFold(fig, f.ID) {
			continue
		}
		n := f.Runs
		if runs > 0 {
			n = runs
		}
		t, err := f.RunTrials(n, opt)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		if _, err := fmt.Fprintf(w, "\n%s\n%s\n", f.Title, strings.Repeat("-", len(f.Title))); err != nil {
			return err
		}
		if err := t.Write(w); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		var ids []string
		for _, f := range runner.Figures {
			ids = append(ids, f.ID)
		}
		return fmt.Errorf("unknown figure %q: want all or one of %s", fig, strings.Join(ids, ", "))
	}
	return nil
}
