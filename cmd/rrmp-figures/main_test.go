package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestAllFiguresMatchGolden pins every table rrmp-figures prints, Figures
// 3–9 and A1–A8, byte for byte at two runs per point and seed 1 (well
// under a second). Regenerate deliberately with:
//
//	UPDATE_FIGURES_GOLDEN=1 go test ./cmd/rrmp-figures -run AllFigures
func TestAllFiguresMatchGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", 2, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "figures_all.golden")
	if os.Getenv("UPDATE_FIGURES_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure tables diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// figure runs catalogue entry id once on seed 1 at its default runs.
func figure(t *testing.T, id string) runner.Table {
	t.Helper()
	for _, f := range runner.Figures {
		if f.ID == id {
			tab, err := f.Run(f.Runs, 1)
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}
	}
	t.Fatalf("no figure %s", id)
	return runner.Table{}
}

// col returns the index of tab's numeric column headed head.
func col(t *testing.T, tab runner.Table, head string) int {
	t.Helper()
	for j, c := range tab.Cols {
		if c.Head == head {
			return j
		}
	}
	t.Fatalf("table has no column %q", head)
	return -1
}

// cell returns the value in tab's column head of the row labelled label.
func cell(t *testing.T, tab runner.Table, label, head string) float64 {
	t.Helper()
	r, ok := tab.Row(label)
	if !ok {
		t.Fatalf("table has no row %q", label)
	}
	return r.Vals[col(t, tab, head)]
}

// TestA7VoDContrast renders the A7 table and pins its point: only the
// two-phase long-term set still holds the published prefix when the late
// joiners arrive, so fixed-hold strands messages as unrecoverable and
// buffer-all pays a strictly larger byte-time bill for the same
// reliability.
func TestA7VoDContrast(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "A7", 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"two-phase", "fixed", "all", "unrecoverable"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("A7 table lacks %q:\n%s", want, buf.String())
		}
	}
	tab := figure(t, "A7")
	if len(tab.Rows) != 3 {
		t.Fatalf("A7 has %d rows, want 3", len(tab.Rows))
	}
	unrec := func(p string) float64 { return cell(t, tab, p, runner.MKUnrecoverable) }
	delivery := func(p string) float64 { return cell(t, tab, p, "delivery") }
	bytesec := func(p string) float64 { return cell(t, tab, p, "buffer(B·s)") }
	if unrec("two-phase") != 0 || unrec("all") != 0 {
		t.Fatalf("prefix-holding policies stranded messages: two-phase %v, all %v", unrec("two-phase"), unrec("all"))
	}
	if unrec("fixed") <= 0 || delivery("fixed") >= delivery("two-phase") {
		t.Fatalf("fixed-hold kept the prefix (unrecoverable %v, delivery %v vs %v): contrast lost",
			unrec("fixed"), delivery("fixed"), delivery("two-phase"))
	}
	if bytesec("all") <= bytesec("two-phase") {
		t.Fatalf("buffer-all byte cost %v not above two-phase %v", bytesec("all"), bytesec("two-phase"))
	}
	if j, c := cell(t, tab, "two-phase", "joiners"), cell(t, tab, "two-phase", "catchup(ms)"); j <= 0 || c <= 0 {
		t.Fatalf("two-phase joiners %v catchup %v: late-join machinery idle", j, c)
	}
}

// TestA8AdaptiveDemand renders the A8 table and pins its shape: one row
// per policy, ranked by the default-weight fitness score, scores strictly
// non-increasing and full delivery preserved by every policy in the
// bursty cell.
func TestA8AdaptiveDemand(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "A8", 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"two-phase", "fixed", "adaptive", "fitness"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("A8 table lacks %q:\n%s", want, buf.String())
		}
	}
	tab := figure(t, "A8")
	if len(tab.Rows) != 3 {
		t.Fatalf("A8 has %d rows, want 3", len(tab.Rows))
	}
	fitness := col(t, tab, "fitness")
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Vals[fitness] > tab.Rows[i-1].Vals[fitness] {
			t.Fatalf("rows not ranked by fitness: %v after %v", tab.Rows[i], tab.Rows[i-1])
		}
	}
	for _, r := range tab.Rows {
		p := r.Labels[0]
		if cell(t, tab, p, "delivery") <= 0 {
			t.Fatalf("policy %s delivered nothing", p)
		}
		if cell(t, tab, p, "buffer(B·s)") <= 0 {
			t.Fatalf("policy %s reports no byte cost; the fitness byte axis is dead", p)
		}
	}
}

// TestUnknownFigureRejected covers the error path: the error names the
// catalogue so the user can pick a figure.
func TestUnknownFigureRejected(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "A99", 1, 1, 1, 1)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, f := range runner.Figures {
		if !strings.Contains(err.Error(), f.ID) {
			t.Fatalf("error %q does not list figure %s", err, f.ID)
		}
	}
}

// TestOutOfRangeFlagsRejected: a negative run count or pool size, or
// fewer than one trial, is an error before anything runs.
func TestOutOfRangeFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		name                   string
		runs, trials, parallel int
	}{
		{"runs", -7, 1, 1},
		{"trials", 1, 0, 1},
		{"trials-negative", 1, -3, 1},
		{"parallel", 1, 1, -1},
	} {
		var buf bytes.Buffer
		if err := run(&buf, "3", c.runs, 1, c.trials, c.parallel); err == nil || buf.Len() != 0 {
			t.Fatalf("%s: accepted (err %v, %d bytes printed)", c.name, err, buf.Len())
		}
	}
}

// TestTrialsAggregateAnyFigure: -trials reaches every figure, not only
// A1 and A5. Figure 8 over three trials prints mean ± 95% CI columns, and
// the bytes do not depend on the pool width.
func TestTrialsAggregateAnyFigure(t *testing.T) {
	var outs []string
	for _, parallel := range []int{1, 3} {
		var buf bytes.Buffer
		if err := run(&buf, "8", 2, 1, 3, parallel); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("-trials 3 output differs between -parallel 1 and 3:\n%s\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "3 trials; every column is mean ± 95% CI") || strings.Count(outs[0], "±") < 11 {
		t.Fatalf("Figure 8 at -trials 3 is not aggregated:\n%s", outs[0])
	}
}
