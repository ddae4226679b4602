package runner

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exp"
)

// figure returns the catalogue entry id.
func figure(t *testing.T, id string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no figure %s in the catalogue", id)
	return Figure{}
}

// col returns the index of tab's numeric column headed head.
func col(t *testing.T, tab Table, head string) int {
	t.Helper()
	for j, c := range tab.Cols {
		if c.Head == head {
			return j
		}
	}
	t.Fatalf("table has no column %q", head)
	return -1
}

// val returns the value in tab's column head of the row labelled labels.
func val(t *testing.T, tab Table, head string, labels ...string) float64 {
	t.Helper()
	r, ok := tab.Row(labels...)
	if !ok {
		t.Fatalf("table has no row %q", labels)
	}
	return r.Vals[col(t, tab, head)]
}

// column returns every row's value in tab's column head, in row order.
func column(t *testing.T, tab Table, head string) []float64 {
	t.Helper()
	j := col(t, tab, head)
	out := make([]float64, len(tab.Rows))
	for i, r := range tab.Rows {
		out[i] = r.Vals[j]
	}
	return out
}

// TestFiguresCatalogueShape runs every catalogue entry once at one run
// per point and checks what printing and aggregation rely on: a row has
// one cell per column, and no two rows share their labels.
func TestFiguresCatalogueShape(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures {
		if seen[f.ID] || f.Runs < 1 || f.Title == "" {
			t.Fatalf("figure %q: duplicate ID, no title or runs %d", f.ID, f.Runs)
		}
		seen[f.ID] = true
		tab, err := f.Run(1, 1)
		if err != nil {
			t.Fatalf("figure %s: %v", f.ID, err)
		}
		if len(tab.Rows) == 0 || len(tab.Labels) == 0 {
			t.Fatalf("figure %s: %d rows, %d label columns", f.ID, len(tab.Rows), len(tab.Labels))
		}
		keys := map[string]bool{}
		for _, r := range tab.Rows {
			if len(r.Labels) != len(tab.Labels) || len(r.Vals) != len(tab.Cols) {
				t.Fatalf("figure %s: row %q has %d labels and %d values for %d and %d columns",
					f.ID, r.Labels, len(r.Labels), len(r.Vals), len(tab.Labels), len(tab.Cols))
			}
			if k := rowKey(r.Labels); keys[k] {
				t.Fatalf("figure %s: two rows labelled %q", f.ID, r.Labels)
			} else {
				keys[k] = true
			}
		}
	}
}

// TestRunTrialsMatchesRowsByLabel aggregates a driver that lists its rows
// in a different order each trial: rows must pair by label, and the
// result must not depend on the pool width.
func TestRunTrialsMatchesRowsByLabel(t *testing.T) {
	f := Figure{ID: "x", Run: func(_ int, seed uint64) (Table, error) {
		tab := Table{
			Labels: []Column{{Head: "name", Width: -6}},
			Cols:   []Column{{Head: "v", Width: 6, Verb: "%.1f"}, {Head: "ok", Width: 6, Verb: "%t"}},
		}
		if seed%2 == 0 {
			tab.add([]string{"a"}, 1, 1)
			tab.add([]string{"b"}, 10, 0)
		} else {
			tab.add([]string{"b"}, 10, 0)
			tab.add([]string{"a"}, 1, 1)
		}
		return tab, nil
	}}
	var outs []string
	for _, parallel := range []int{1, 3} {
		tab, err := f.RunTrials(0, exp.Options{Trials: 6, Parallel: parallel, BaseSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if tab.Trials != 6 || val(t, tab, "v", "a") != 1 || val(t, tab, "v", "b") != 10 || val(t, tab, "ok", "a") != 1 {
			t.Fatalf("rows mixed across trials: %+v", tab.Rows)
		}
		var buf bytes.Buffer
		if err := tab.Write(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("aggregate depends on the pool width:\n%s\n%s", outs[0], outs[1])
	}
	if !strings.HasPrefix(outs[0], "6 trials;") || !strings.Contains(outs[0], "1.00±0.00") {
		t.Fatalf("aggregate does not print mean±CI:\n%s", outs[0])
	}
}

// TestRunTrialsReranksRankedRows aggregates a ranked driver whose first
// trial puts the row with the lower mean first: the aggregate must list
// rows by mean of the first column, highest first.
func TestRunTrialsReranksRankedRows(t *testing.T) {
	f := Figure{ID: "x", Run: func(_ int, seed uint64) (Table, error) {
		tab := Table{
			Labels: []Column{{Head: "name", Width: -6}},
			Cols:   []Column{{Head: "score", Width: 6, Verb: "%.1f"}},
			Ranked: true,
		}
		if seed == exp.TrialSeed(3, 0) { // trial 0: a ranks first
			tab.add([]string{"a"}, 5)
			tab.add([]string{"b"}, 4)
		} else {
			tab.add([]string{"b"}, 9)
			tab.add([]string{"a"}, 1)
		}
		return tab, nil
	}}
	tab, err := f.RunTrials(0, exp.Options{Trials: 4, Parallel: 2, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].Labels[0] != "b" || tab.Rows[1].Labels[0] != "a" {
		t.Fatalf("aggregate not ranked by mean score: %+v", tab.Rows)
	}
}
