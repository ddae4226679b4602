package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// compareMain is `bench compare`: base record(s) against candidate
// record(s), one row per (workload, end-to-end metric), each judged by the
// metric's direction and bound. It exits 1 on any out-of-bound row or any
// sim_digest difference.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	allowSim := fs.Bool("allow-sim-change", false, "report a sim_digest difference as a warning (behaviour-changing PRs)")
	baseList := fs.String("base", "", "comma-separated base records (several runs of one commit)")
	newList := fs.String("new", "", "comma-separated candidate records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var basePaths, newPaths []string
	switch {
	case *baseList != "" && *newList != "" && fs.NArg() == 0:
		basePaths, newPaths = strings.Split(*baseList, ","), strings.Split(*newList, ",")
	case *baseList == "" && *newList == "" && fs.NArg() == 2:
		basePaths, newPaths = fs.Args()[:1], fs.Args()[1:]
	default:
		return errors.New("compare wants BASE.json NEW.json, or -base A,B -new C,D")
	}
	base, err := loadRecords(basePaths)
	if err != nil {
		return err
	}
	cand, err := loadRecords(newPaths)
	if err != nil {
		return err
	}
	ok, err := compareRecords(os.Stdout, base, cand, *allowSim)
	if err != nil {
		return err
	}
	if !ok {
		return errRegression
	}
	return nil
}

func loadRecords(paths []string) ([]recordFile, error) {
	recs := make([]recordFile, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r recordFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != schema || r.Kind != "run" {
			return nil, fmt.Errorf("%s: not a `bench run` record (schema %q, kind %q)", p, r.Schema, r.Kind)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// envMismatch names the first host or run fact two records disagree on.
// Timings from different widths, toolchains or inputs do not compare.
func envMismatch(a, b envInfo) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.W != b.W:
		return fmt.Sprintf("W %d vs %d", a.W, b.W)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go version %s vs %s", a.GoVersion, b.GoVersion)
	case a.GOGC != b.GOGC:
		return fmt.Sprintf("GOGC %s vs %s", a.GOGC, b.GOGC)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("seconds %d vs %d", a.Seconds, b.Seconds)
	case a.Smoke != b.Smoke:
		return "smoke vs full scale"
	}
	return ""
}

// worseBy returns how much worse cand reads than base in the metric's bad
// direction (negative when it reads better): a share of base, or the plain
// difference for absolute-bound metrics.
func worseBy(m e2eMetric, base, cand float64) float64 {
	diff := cand - base
	if m.HigherBetter {
		diff = -diff
	}
	if m.Abs {
		return diff
	}
	if base == 0 {
		if diff > 0 {
			return 1
		}
		return 0
	}
	return diff / base
}

// compareRecords prints the comparison table and reports whether every
// row is within bound. It refuses (error) records that do not compare.
func compareRecords(w io.Writer, base, cand []recordFile, allowSim bool) (bool, error) {
	if len(base) == 0 || len(cand) == 0 {
		return false, errors.New("compare needs at least one record per side")
	}
	for _, r := range append(append([]recordFile(nil), base...), cand...) {
		if why := envMismatch(base[0].Env, r.Env); why != "" {
			return false, fmt.Errorf("refusing to compare: %s", why)
		}
	}
	e := base[0].Env
	fmt.Fprintf(w, "host: nproc=%d W=%d %s GOGC=%s seed=%d seconds=%d; base commit %s (%d runs), new commit %s (%d runs)\n",
		e.NProc, e.W, e.GoVersion, e.GOGC, e.Seed, e.Seconds, base[0].Env.Commit, len(base), cand[0].Env.Commit, len(cand))
	fmt.Fprintf(w, "%-12s %-17s %14s %14s %9s %9s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")

	ok := true
	for _, name := range workloadNames {
		bs, cs := pick(base, name), pick(cand, name)
		if len(bs) == 0 && len(cs) == 0 {
			continue
		}
		if len(bs) != len(base) || len(cs) != len(cand) {
			fmt.Fprintf(w, "%-12s present in %d/%d base and %d/%d new records  MISSING\n", name, len(bs), len(base), len(cs), len(cand))
			ok = false
			continue
		}
		for _, m := range e2eMetrics {
			if omittedE2E[name][m.Name] {
				fmt.Fprintf(w, "%-12s %-17s %14s %14s %9s %9s  declared gap\n", name, m.Name, "-", "-", "-", "-")
				continue
			}
			bv, cv := values(bs, m.Name), values(cs, m.Name)
			if len(bv) != len(bs) || len(cv) != len(cs) {
				fmt.Fprintf(w, "%-12s %-17s metric missing from a record  MISSING\n", name, m.Name)
				ok = false
				continue
			}
			b, c := median(bv), median(cv)
			worse := worseBy(m, b, c)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, ok = "REGRESSION", false
			case worse < -m.Bound && m.Bound > 0:
				verdict = "better"
			}
			ratio := "-"
			if b != 0 {
				ratio = fmt.Sprintf("%.4f", c/b)
			}
			bound := fmt.Sprintf("%.1f%%", m.Bound*100)
			if m.Abs {
				bound = fmt.Sprintf("%g abs", m.Bound)
			}
			fmt.Fprintf(w, "%-12s %-17s %14.6g %14.6g %9s %9s  %s\n", name, m.Name, b, c, ratio, bound, verdict)
			if len(bv) > 1 || len(cv) > 1 {
				bq1, bq3 := quartiles(bv)
				cq1, cq3 := quartiles(cv)
				fmt.Fprintf(w, "%-12s %-17s   base quartiles [%.6g, %.6g]   new quartiles [%.6g, %.6g]\n", "", "", bq1, bq3, cq1, cq3)
			}
		}
		if why := digestDifference(bs, cs); why != "" {
			if allowSim {
				fmt.Fprintf(w, "%-12s %-17s %s  WARNING (-allow-sim-change)\n", name, "sim_digest", why)
			} else {
				fmt.Fprintf(w, "%-12s %-17s %s  SIM CHANGED\n", name, "sim_digest", why)
				ok = false
			}
		} else {
			fmt.Fprintf(w, "%-12s %-17s identical (%s…)\n", name, "sim_digest", short(bs[0].SimDigest))
		}
	}
	return ok, nil
}

func pick(recs []recordFile, workload string) []workloadResult {
	var out []workloadResult
	for _, r := range recs {
		for _, wl := range r.Workloads {
			if wl.Name == workload {
				out = append(out, wl)
			}
		}
	}
	return out
}

func values(rs []workloadResult, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// digestDifference describes the first sim_digest that differs from the
// first base record's, or "" when every record agrees.
func digestDifference(base, cand []workloadResult) string {
	want := base[0].SimDigest
	for _, r := range append(append([]workloadResult(nil), base...), cand...) {
		if r.SimDigest != want {
			return fmt.Sprintf("%s… vs %s…", short(want), short(r.SimDigest))
		}
	}
	return ""
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
