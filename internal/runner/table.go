package runner

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/exp"
)

// Column is one printed column of a Table. Width pads the head and every
// cell to that many runes, right-aligned; a negative width left-aligns,
// as in fmt's %*s. Verb formats one value of a numeric column (for
// example "%.1f", or "%.2f%%" for a value already in percent); "%t"
// prints a 0/1 value as false/true. Label columns have no verb.
type Column struct {
	Head  string
	Width int
	Verb  string
}

// Row is one line of a Table: its label cells, then one value per numeric
// column. CI holds each value's 95% confidence half-width once the table
// aggregates several trials.
type Row struct {
	Labels []string
	Vals   []float64
	CI     []float64
}

// Table is the one result shape of every figure and ablation: label
// columns, then numeric columns, then an optional footnote. Rows are
// identified by their label cells, never by position.
type Table struct {
	Labels []Column
	Cols   []Column
	Rows   []Row
	Note   string
	// Trials is the number of seeded trials Rows aggregate; above one,
	// every value is a mean and Row.CI is set.
	Trials int
	// Ranked marks a table whose rows are ordered by their first numeric
	// column, highest first (A8's fitness). RunTrials re-ranks the
	// aggregated rows by that column's mean.
	Ranked bool
}

// seriesTable is the shape of the paper's plots: one x label column and
// one 26-wide numeric column per named curve.
func seriesTable(x string, curves ...string) Table {
	t := Table{Labels: []Column{{Head: x, Width: 12}}}
	for _, name := range curves {
		t.Cols = append(t.Cols, Column{Head: name, Width: 26, Verb: "%.2f"})
	}
	return t
}

func (t *Table) add(labels []string, vals ...float64) {
	t.Rows = append(t.Rows, Row{Labels: labels, Vals: vals})
}

// Row returns the row whose label cells are labels.
func (t Table) Row(labels ...string) (Row, bool) {
	key := rowKey(labels)
	for _, r := range t.Rows {
		if rowKey(r.Labels) == key {
			return r, true
		}
	}
	return Row{}, false
}

func rowKey(labels []string) string { return strings.Join(labels, "\x00") }

// cell formats row r's value in column j under the column's verb, or its
// mean and CI once r aggregates trials.
func (c Column) cell(r Row, j int) string {
	verb := c.Verb
	if r.CI != nil {
		if verb == "%t" {
			verb = "%.2f" // the share of trials where it held
		}
		return fmt.Sprintf(verb+"±"+verb, r.Vals[j], r.CI[j])
	}
	if verb == "%t" {
		return strconv.FormatBool(r.Vals[j] != 0)
	}
	return fmt.Sprintf(verb, r.Vals[j])
}

// Write prints t as aligned text: the head line, one line per row and the
// footnote, with cells separated by one space. An aggregated table says
// so first, prints every value as mean±CI and widens a numeric column to
// its widest cell.
func (t Table) Write(w io.Writer) error {
	cols := append(append([]Column(nil), t.Labels...), t.Cols...)
	widths := make([]int, len(cols))
	lines := [][]string{make([]string, len(cols))}
	for j, c := range cols {
		widths[j], lines[0][j] = c.Width, c.Head
	}
	for _, r := range t.Rows {
		line := append([]string(nil), r.Labels...)
		for j, c := range t.Cols {
			s := c.cell(r, j)
			if r.CI != nil {
				k := len(t.Labels) + j
				widths[k] = max(widths[k], utf8.RuneCountInString(s))
			}
			line = append(line, s)
		}
		lines = append(lines, line)
	}

	var b strings.Builder
	if t.Trials > 1 {
		fmt.Fprintf(&b, "%d trials; every column is mean ± 95%% CI\n", t.Trials)
	}
	for _, line := range lines {
		for j, s := range line {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintln(&b, t.Note)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Figure is one experiment of the evaluation: a figure of the paper's §4
// or a DESIGN.md §4 ablation.
type Figure struct {
	// ID names the figure on rrmp-figures' -fig flag.
	ID    string
	Title string
	// Runs is the default repetition count per point. Experiments that
	// run once per seed have Runs 1 and ignore Run's runs.
	Runs int
	// Run executes the experiment once from seed.
	Run func(runs int, seed uint64) (Table, error)
}

// RunTrials runs f o.Trials times on exp's seeded worker pool and
// aggregates every numeric cell to its mean and 95% CI, matching rows
// across trials by their labels: a driver may order its rows differently
// per trial (A8 ranks them). Rows keep trial 0's order unless the table
// is Ranked. With one trial it is f.Run on o.BaseSeed
// itself. The result is a pure function of (runs, o.Trials, o.BaseSeed),
// whatever o.Parallel is.
func (f Figure) RunTrials(runs int, o exp.Options) (Table, error) {
	if o.Trials <= 1 {
		return f.Run(runs, o.BaseSeed)
	}
	tables := make([]Table, o.Trials)
	_, err := exp.RunTrials(o, func(trial int, seed uint64) (map[string]float64, error) {
		t, err := f.Run(runs, seed)
		tables[trial] = t
		return nil, err
	})
	if err != nil {
		return Table{}, err
	}

	out := tables[0]
	out.Trials = len(tables)
	out.Rows = make([]Row, len(tables[0].Rows))
	samples := make([]float64, len(tables))
	for i, r := range tables[0].Rows {
		agg := Row{Labels: r.Labels, Vals: make([]float64, len(out.Cols)), CI: make([]float64, len(out.Cols))}
		for j, c := range out.Cols {
			for trial, t := range tables {
				match, ok := t.Row(r.Labels...)
				if !ok {
					return Table{}, fmt.Errorf("runner: figure %s trial %d has no row %q", f.ID, trial, r.Labels)
				}
				samples[trial] = match.Vals[j]
			}
			s := exp.Summarize(c.Head, samples)
			agg.Vals[j], agg.CI[j] = s.Mean, s.CI95
		}
		out.Rows[i] = agg
	}
	if out.Ranked {
		sort.SliceStable(out.Rows, func(a, b int) bool { return out.Rows[a].Vals[0] > out.Rows[b].Vals[0] })
	}
	return out, nil
}
