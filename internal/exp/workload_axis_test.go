package exp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSweepExpansionWorkloadAxisAppends pins the workload axis contract:
// the legacy single-sender family expands first and is cell-for-cell the
// workload-free matrix; each multi-client family appends after it as one
// whole block, outermost of every other axis (including protocols).
func TestSweepExpansionWorkloadAxisAppends(t *testing.T) {
	legacy := Sweep{
		Regions:   [][]int{{8}, {6, 6}},
		Losses:    []float64{0.05, 0.2},
		Policies:  []string{"two-phase", "fixed"},
		Protocols: []string{"rrmp", "rmtp"},
	}
	augmented := legacy
	wl := &workload.Spec{Clients: 4, Msgs: 16, Arrival: workload.ArrivalPoisson, Gap: 50 * time.Millisecond}
	augmented.Workloads = []*workload.Spec{nil, wl}

	base := legacy.Expand()
	cells := augmented.Expand()
	if len(cells) != 2*len(base) {
		t.Fatalf("augmented sweep has %d cells, want %d", len(cells), 2*len(base))
	}
	for i, want := range base {
		if cells[i].Name() != want.Name() {
			t.Fatalf("legacy cell %d moved: %q != %q", i, cells[i].Name(), want.Name())
		}
		if cells[i].Workload != nil {
			t.Fatalf("legacy cell %d carries a workload: %+v", i, cells[i])
		}
	}
	for i, c := range cells[len(base):] {
		if c.Workload != wl {
			t.Fatalf("workload cell %d lacks the spec: %+v", i, c)
		}
		if !strings.Contains(c.Name(), " wl=poisson:c4:m16") {
			t.Fatalf("workload cell name %q lacks the wl token", c.Name())
		}
		// The workload axis wraps the protocol axis: within the family the
		// rrmp block leads and the rmtp block follows, same as the base.
		if got, want := c.Protocol, base[i].Protocol; got != want {
			t.Fatalf("workload cell %d protocol %q, want %q (axis must wrap protocols)", i, got, want)
		}
	}
}

// TestScenarioNameWorkloadToken pins the name rule: single-sender cells
// never carry a wl token; workload cells always do, and the token follows
// the budget token and precedes the protocol token.
func TestScenarioNameWorkloadToken(t *testing.T) {
	base := Scenario{Regions: []int{10}, Policy: "two-phase"}
	if strings.Contains(base.Name(), "wl=") {
		t.Fatalf("workload-free name %q carries a wl token", base.Name())
	}
	sc := base
	sc.Protocol = "rmtp"
	sc.Policy = "server"
	sc.ByteBudget = 4096
	sc.Workload = VoDPrefixPush()
	want := "regions=10 loss=0.00 churn=0 budget=4096" +
		" wl=constant:c1:m60:fixed1024:vod0.25@1.5s proto=rmtp policy=server"
	if got := sc.Name(); got != want {
		t.Fatalf("name %q, want %q", got, want)
	}
}

// TestWorkloadSweepShape pins the standing workload family appended after
// DefaultSweep in BENCH_sweep.json: 3 workloads × (4 rrmp + 2 rmtp) cells,
// all hash-loss (shard-safe), none of them overlapping the legacy matrix.
func TestWorkloadSweepShape(t *testing.T) {
	sw := WorkloadSweep()
	cells := sw.Expand()
	if len(cells) != 18 {
		t.Fatalf("workload sweep has %d cells, want 18", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Workload == nil {
			t.Fatalf("cell %q lacks a workload", c.Name())
		}
		if err := c.Workload.Validate(); err != nil {
			t.Fatalf("cell %q workload invalid: %v", c.Name(), err)
		}
		if c.LossMode != "hash" {
			t.Fatalf("cell %q not hash-loss", c.Name())
		}
		if seen[c.Name()] {
			t.Fatalf("duplicate cell name %q", c.Name())
		}
		seen[c.Name()] = true
	}
	// Three families in spec order, rrmp before rmtp within each.
	if cells[0].Workload != cells[5].Workload || cells[0].Workload == cells[6].Workload {
		t.Fatal("workload families not contiguous 6-cell blocks")
	}
	if cells[5].Protocol != "rmtp" || cells[0].Protocol != "" {
		t.Fatal("protocol axis order broken within workload family")
	}
}

// TestRunSweepsConcatenates pins RunSweeps: cells from later sweeps append
// after all cells of earlier ones, and trial seeds pair across the whole
// concatenation.
func TestRunSweepsConcatenates(t *testing.T) {
	a := Sweep{Regions: [][]int{{4}}, Losses: []float64{0, 0.1}}
	b := Sweep{Regions: [][]int{{6}}, Losses: []float64{0.2}}
	seeds := map[string][]uint64{}
	run := func(sc Scenario, seed uint64) (map[string]float64, error) {
		seeds[sc.Name()] = append(seeds[sc.Name()], seed)
		return map[string]float64{"x": float64(seed)}, nil
	}
	rep, err := RunSweeps(Options{Trials: 2, Parallel: 1, BaseSeed: 7}, []Sweep{a, b}, run)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := append(namesOf(a.Expand()), namesOf(b.Expand())...)
	if len(rep.Cells) != len(wantNames) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(wantNames))
	}
	for i, c := range rep.Cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d is %q, want %q", i, c.Name, wantNames[i])
		}
	}
	var first []uint64
	for name, s := range seeds {
		if first == nil {
			first = s
		}
		if len(s) != 2 || s[0] != first[0] || s[1] != first[1] {
			t.Fatalf("cell %q seeds %v not paired with %v", name, s, first)
		}
	}
}

func namesOf(scs []Scenario) []string {
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.Name()
	}
	return out
}
