package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	policyspec "repro/internal/policy"
	"repro/internal/rng"
)

// noisyTrial is a deterministic stand-in for a simulation: its metrics are
// a pure function of the seed, with enough work to let workers interleave.
func noisyTrial(_ int, seed uint64) (map[string]float64, error) {
	r := rng.New(seed)
	sum := 0.0
	for i := 0; i < 1000; i++ {
		sum += r.Float64()
	}
	return map[string]float64{
		"uniform_mean": sum / 1000,
		"first_draw":   rng.New(seed).Float64(),
	}, nil
}

func TestTrialSeedsDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := TrialSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TrialSeed(42, %d) == TrialSeed(42, %d) == %#x", i, prev, s)
		}
		seen[s] = i
	}
	if TrialSeed(42, 0) != TrialSeed(42, 0) {
		t.Fatal("TrialSeed is not stable")
	}
	if TrialSeed(42, 0) == TrialSeed(43, 0) {
		t.Fatal("TrialSeed ignores the base seed")
	}
}

// TestRunDeterministicAcrossParallelism is the harness's core guarantee:
// the same (BaseSeed, Trials) must aggregate to byte-identical JSON no
// matter how many workers execute the trials.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	var blobs [][]byte
	for _, parallel := range []int{1, 3, 8} {
		agg, err := Run(Options{Trials: 32, Parallel: parallel, BaseSeed: 7}, noisyTrial)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	for i := 1; i < len(blobs); i++ {
		if string(blobs[0]) != string(blobs[i]) {
			t.Fatalf("aggregate differs between parallel=1 and parallel run %d:\n%s\nvs\n%s",
				i, blobs[0], blobs[i])
		}
	}
}

func TestRunUsesWorkerPool(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	_, err := Run(Options{Trials: 16, Parallel: 4, BaseSeed: 1},
		func(int, uint64) (map[string]float64, error) {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return map[string]float64{"x": 1}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Fatalf("worker pool exceeded Parallel=4: peak %d trials in flight", peak)
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Options{Trials: 8, Parallel: 4, BaseSeed: 1},
		func(trial int, _ uint64) (map[string]float64, error) {
			if trial == 3 {
				return nil, boom
			}
			return map[string]float64{"x": 1}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("error should name the failing trial: %v", err)
	}
}

// TestCIWidthOnKnownDistribution checks the aggregation against Uniform[0,1):
// sample stddev ≈ 1/√12 and the CI95 half-width ≈ 1.96·sd/√n.
func TestCIWidthOnKnownDistribution(t *testing.T) {
	const trials = 1000
	agg, err := Run(Options{Trials: trials, Parallel: 8, BaseSeed: 99},
		func(_ int, seed uint64) (map[string]float64, error) {
			return map[string]float64{"u": rng.New(seed).Float64()}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := agg.Metric("u")
	if !ok {
		t.Fatal("metric u missing")
	}
	if m.N != trials {
		t.Fatalf("N = %d, want %d", m.N, trials)
	}
	wantSD := 1 / math.Sqrt(12)
	if math.Abs(m.Stddev-wantSD) > 0.02 {
		t.Fatalf("stddev = %.4f, want ≈ %.4f", m.Stddev, wantSD)
	}
	wantHW := 1.96 * m.Stddev / math.Sqrt(trials)
	if math.Abs(m.CI95-wantHW) > 1e-9 {
		t.Fatalf("CI95 = %.6f, want %.6f for n=%d", m.CI95, wantHW, trials)
	}
	// The true mean must sit inside a 3×-CI band around the estimate
	// (a fixed-seed run either passes forever or fails forever).
	if math.Abs(m.Mean-0.5) > 3*m.CI95 {
		t.Fatalf("mean = %.4f implausibly far from 0.5 (CI95 %.4f)", m.Mean, m.CI95)
	}
	if m.Min < 0 || m.Max >= 1 {
		t.Fatalf("min/max %.4f/%.4f outside [0,1)", m.Min, m.Max)
	}
}

func TestAggregateSmallSampleUsesStudentT(t *testing.T) {
	agg := AggregateTrials([]map[string]float64{
		{"x": 1}, {"x": 2}, {"x": 3},
	})
	m, _ := agg.Metric("x")
	// n=3: sd = 1, CI95 = t(0.975, df=2)·1/√3 = 4.303/√3.
	want := 4.303 / math.Sqrt(3)
	if math.Abs(m.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %.6f, want %.6f", m.CI95, want)
	}
}

func TestSweepExpansionCartesian(t *testing.T) {
	sw := Sweep{
		Regions:  [][]int{{50}, {100}, {50, 50}},
		Losses:   []float64{0.05, 0.2},
		Churns:   []float64{0},
		Policies: []string{"two-phase", "fixed", "all"},
	}
	cells := sw.Expand()
	if len(cells) != 3*2*1*3 {
		t.Fatalf("expanded %d cells, want 18", len(cells))
	}
	// Policies vary fastest, regions slowest.
	if cells[0].Policy != "two-phase" || cells[1].Policy != "fixed" || cells[2].Policy != "all" {
		t.Fatalf("policy order wrong: %s, %s, %s", cells[0].Policy, cells[1].Policy, cells[2].Policy)
	}
	if cells[0].Loss != 0.05 || cells[3].Loss != 0.2 {
		t.Fatalf("loss order wrong: %v then %v", cells[0].Loss, cells[3].Loss)
	}
	if len(cells[17].Regions) != 2 {
		t.Fatalf("last cell should be the two-region vector, got %v", cells[17].Regions)
	}
	names := map[string]bool{}
	for _, c := range cells {
		if names[c.Name()] {
			t.Fatalf("duplicate cell name %q", c.Name())
		}
		names[c.Name()] = true
		if c.Msgs != 20 || c.Gap != 20*time.Millisecond || c.Horizon != 5*time.Second {
			t.Fatalf("workload defaults not applied: %+v", c)
		}
	}
	// Mutating one cell's region vector must not alias another expansion.
	cells[0].Regions[0] = 999
	if sw.Regions[0][0] != 50 {
		t.Fatal("Expand aliased the sweep's region slices")
	}
}

func TestSweepExpansionDefaults(t *testing.T) {
	cells := (Sweep{}).Expand()
	if len(cells) != 1 {
		t.Fatalf("zero sweep expanded to %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Loss != 0 || c.Churn != 0 || c.Policy != "two-phase" || len(c.Regions) != 1 || c.Regions[0] != 100 {
		t.Fatalf("zero sweep baseline cell wrong: %+v", c)
	}
}

// TestRunSweepPairsSeedsAcrossCells verifies the common-random-numbers
// design: trial i sees the same seed in every cell.
func TestRunSweepPairsSeedsAcrossCells(t *testing.T) {
	sw := Sweep{Policies: []string{"two-phase", "fixed", "all"}}
	var mu sync.Mutex
	seeds := map[string]map[uint64]bool{} // policy -> set of seeds
	rep, err := RunSweeps(Options{Trials: 5, Parallel: 4, BaseSeed: 3}, []Sweep{sw},
		func(sc Scenario, seed uint64) (map[string]float64, error) {
			mu.Lock()
			if seeds[sc.Policy] == nil {
				seeds[sc.Policy] = map[uint64]bool{}
			}
			seeds[sc.Policy][seed] = true
			mu.Unlock()
			return map[string]float64{"seed_lo": float64(seed % 1000)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 || rep.Trials != 5 || rep.Schema != ReportSchema {
		t.Fatalf("report shape wrong: %d cells, %d trials, schema %q", len(rep.Cells), rep.Trials, rep.Schema)
	}
	want := fmt.Sprint(seeds["two-phase"])
	for _, p := range []string{"fixed", "all"} {
		if fmt.Sprint(seeds[p]) != want {
			t.Fatalf("cell %q saw different trial seeds than cell \"two-phase\"", p)
		}
	}
	for i, cell := range rep.Cells {
		if cell.Name != cell.Scenario.Name() {
			t.Fatalf("cell %d name %q != scenario name %q", i, cell.Name, cell.Scenario.Name())
		}
		if m, ok := cell.Aggregate.Metric("seed_lo"); !ok || m.N != 5 {
			t.Fatalf("cell %d aggregate missing seed_lo over 5 trials: %+v", i, cell.Aggregate)
		}
	}
}

func TestRunSweepErrorNamesCell(t *testing.T) {
	sw := Sweep{Policies: []string{"two-phase", "fixed"}}
	_, err := RunSweeps(Options{Trials: 2, Parallel: 2, BaseSeed: 1}, []Sweep{sw},
		func(sc Scenario, _ uint64) (map[string]float64, error) {
			if sc.Policy == "fixed" {
				return nil, errors.New("kaput")
			}
			return map[string]float64{"x": 1}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "policy=fixed") {
		t.Fatalf("error should name the failing cell: %v", err)
	}
}

// TestRunSweepValidatesPolicies verifies the expansion-time policy check:
// a typo'd policy axis fails before any trial runs, with the registry's
// known-kind menu in the error and policy.UnknownKindError reachable via
// errors.As.
func TestRunSweepValidatesPolicies(t *testing.T) {
	sw := Sweep{Policies: []string{"two-phase", "fixd"}}
	ran := false
	_, err := RunSweeps(Options{Trials: 1, BaseSeed: 1}, []Sweep{sw},
		func(Scenario, uint64) (map[string]float64, error) {
			ran = true
			return map[string]float64{"x": 1}, nil
		})
	if err == nil {
		t.Fatal("sweep with unknown policy should fail")
	}
	if ran {
		t.Fatal("no trial should run when validation fails")
	}
	var unknown *policyspec.UnknownKindError
	if !errors.As(err, &unknown) || unknown.Kind != "fixd" {
		t.Fatalf("want UnknownKindError for %q, got: %v", "fixd", err)
	}
	if !strings.Contains(err.Error(), "two-phase") {
		t.Fatalf("error should list known policies: %v", err)
	}
	// Aliases and parameterized specs are valid axis values; rmtp-only
	// sweeps skip the check entirely (their axis collapses to "server").
	if err := (Sweep{Policies: []string{"fixed-hold", "adaptive:tmin=10ms,tmax=50ms"}}).Validate(); err != nil {
		t.Fatalf("aliased/parameterized policies should validate: %v", err)
	}
	if err := (Sweep{Protocols: []string{"rmtp"}, Policies: []string{"anything"}}).Validate(); err != nil {
		t.Fatalf("rmtp-only sweep should skip policy validation: %v", err)
	}
}

// TestSweepValidateDomains is the out-of-domain table: every value below
// ran to completion (as a cell named e.g. "loss=NaN") before Validate
// checked domains; each must now fail with an error naming the field and
// the value, and every standing matrix must keep validating.
func TestSweepValidateDomains(t *testing.T) {
	for _, tc := range []struct {
		sw   Sweep
		want string // substring: the field and the offending value
	}{
		{Sweep{Losses: []float64{0.1, math.NaN()}}, "loss NaN"},
		{Sweep{Losses: []float64{-0.5}}, "loss -0.5"},
		{Sweep{Losses: []float64{1.5}}, "loss 1.5"},
		{Sweep{Churns: []float64{0, -3}}, "churn rate -3"},
		{Sweep{Churns: []float64{math.NaN()}}, "churn rate NaN"},
		{Sweep{Crashes: []float64{-1}}, "crash rate -1"},
		{Sweep{C: -6}, "c -6"},
		{Sweep{Lambda: math.NaN()}, "lambda NaN"},
		{Sweep{Gap: -time.Millisecond}, "gap -1ms"},
		{Sweep{Horizon: -time.Second}, "horizon -1s"},
		{Sweep{FixedHold: -time.Second}, "fixed hold -1s"},
		{Sweep{RepairBackoff: -time.Second}, "repair backoff -1s"},
		{Sweep{CrashRecover: -time.Second}, "crash-recover downtime -1s"},
		{Sweep{PartitionAt: -time.Second}, "partition instant -1s"},
		{Sweep{Partitions: []time.Duration{0, -time.Second}}, "partition duration -1s"},
		{Sweep{Msgs: -1}, "msgs -1"},
		{Sweep{PayloadSizes: []int{0, -512}}, "payload size -512"},
		{Sweep{Budgets: []int{-8192}}, "byte budget -8192"},
		{Sweep{Protocols: []string{"rrmp", "srm"}}, `protocol "srm"`},
		{Sweep{Protocols: []string{"rmtp", " "}}, `protocol " "`},
		{Sweep{LossMode: "hsah"}, `loss mode "hsah"`},
		{Sweep{PayloadModel: "pareto"}, `"pareto"`},
	} {
		err := tc.sw.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error containing %q", tc.sw, err, tc.want)
		}
	}
	for name, sw := range map[string]Sweep{
		"zero": {}, "default": DefaultSweep(), "workload": WorkloadSweep(), "adaptive": AdaptiveSweep(),
		"scale": ScaleSweep(), "scaleXL": ScaleSweepXL(), "scale1M": ScaleSweep1M(),
		"boundaries": {Losses: []float64{0, 1}, PayloadModel: "lognormal", LossMode: "hash", Protocols: []string{"", "rrmp", "rmtp"}},
	} {
		if err := sw.Validate(); err != nil {
			t.Errorf("%s sweep rejected: %v", name, err)
		}
	}
}

func TestSweepExpansionFaultAxes(t *testing.T) {
	sw := Sweep{
		Regions:      [][]int{{10}},
		Crashes:      []float64{0, 2},
		CrashRecover: time.Second,
		Partitions:   []time.Duration{0, 500 * time.Millisecond},
		PartitionAt:  2 * time.Second,
	}
	cells := sw.Expand()
	if len(cells) != 4 {
		t.Fatalf("expanded to %d cells, want 4 (2 crash × 2 partition)", len(cells))
	}
	for _, sc := range cells {
		if sc.Crash > 0 {
			if sc.CrashRecover != time.Second {
				t.Fatalf("crash cell %q lost CrashRecover", sc.Name())
			}
			if !strings.Contains(sc.Name(), "crash=2/1s") {
				t.Fatalf("crash cell name %q lacks crash token", sc.Name())
			}
		} else if sc.CrashRecover != 0 {
			t.Fatalf("crash-free cell %q carries CrashRecover", sc.Name())
		}
		if sc.PartitionDur > 0 {
			if sc.PartitionAt != 2*time.Second {
				t.Fatalf("partition cell %q PartitionAt=%v, want 2s", sc.Name(), sc.PartitionAt)
			}
			if !strings.Contains(sc.Name(), "part=2s/500ms") {
				t.Fatalf("partition cell name %q lacks part token", sc.Name())
			}
		} else if sc.PartitionAt != 0 {
			t.Fatalf("partition-free cell %q carries PartitionAt", sc.Name())
		}
	}
}

// Names of fault-free cells must not change when fault axes appear: the
// BENCH history relies on stable cell identities.
func TestScenarioNameStableWithoutFaults(t *testing.T) {
	sc := Scenario{Regions: []int{50}, Loss: 0.05, Churn: 0, Policy: "two-phase"}
	if got, want := sc.Name(), "regions=50 loss=0.05 churn=0 policy=two-phase"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

func TestScenarioNameFaultTokens(t *testing.T) {
	sc := Scenario{Regions: []int{30, 30}, Loss: 0.2, Churn: 1, Crash: 1,
		PartitionAt: 1250 * time.Millisecond, PartitionDur: time.Second, Policy: "fixed"}
	want := "regions=30+30 loss=0.20 churn=1 crash=1 part=1.25s/1s policy=fixed"
	if got := sc.Name(); got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	sc.PartitionDur = 0
	if got := sc.Name(); !strings.Contains(got, "part=1.25s/open") {
		t.Fatalf("open partition name %q lacks /open token", got)
	}
}

func TestDefaultSweepHasFaultAxes(t *testing.T) {
	sw := DefaultSweep()
	if len(sw.Crashes) < 2 || len(sw.Partitions) < 2 {
		t.Fatalf("default sweep lacks fault axes: crashes=%v partitions=%v", sw.Crashes, sw.Partitions)
	}
	multi := false
	for _, r := range sw.Regions {
		if len(r) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("default sweep has no multi-region vector for region-granular partitions")
	}
}

func TestScenarioNameByteAxisTokens(t *testing.T) {
	sc := Scenario{Regions: []int{50}, Loss: 0.05, Policy: "two-phase"}
	base := sc.Name()
	if strings.Contains(base, "payload=") || strings.Contains(base, "budget=") {
		t.Fatalf("byte-axis tokens leaked into a pre-axis name %q", base)
	}
	sc.PayloadBytes = 1024
	sc.ByteBudget = 8192
	want := "regions=50 loss=0.05 churn=0 payload=1024 budget=8192 policy=two-phase"
	if got := sc.Name(); got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	sc.PayloadModel = "lognormal"
	if got := sc.Name(); !strings.Contains(got, "payload=lognormal:1024") {
		t.Fatalf("model name %q lacks payload=lognormal:1024", got)
	}
	sc.PayloadBytes = 0
	if got := sc.Name(); !strings.Contains(got, "payload=lognormal:256") {
		t.Fatalf("model-only name %q should show the historic 256 mean", got)
	}
}

// TestSweepExpansionByteAxesAppend pins the byte axes' expansion contract:
// with the default (0, 0) combination leading, the legacy matrix comes
// back cell for cell as a prefix and the payload×budget families append
// after it.
func TestSweepExpansionByteAxesAppend(t *testing.T) {
	legacy := Sweep{
		Regions:  [][]int{{8}, {6, 6}},
		Losses:   []float64{0.05, 0.2},
		Policies: []string{"two-phase", "fixed"},
	}
	augmented := legacy
	augmented.PayloadSizes = []int{0, 1024}
	augmented.Budgets = []int{0, 4096}

	base := legacy.Expand()
	cells := augmented.Expand()
	if len(cells) != 4*len(base) {
		t.Fatalf("augmented sweep has %d cells, want %d", len(cells), 4*len(base))
	}
	for i, want := range base {
		if cells[i].Name() != want.Name() {
			t.Fatalf("legacy cell %d moved: %q != %q", i, cells[i].Name(), want.Name())
		}
	}
	// The appended families walk budgets innermost, payloads outermost.
	wantCombos := []struct{ pb, bud int }{{0, 4096}, {1024, 0}, {1024, 4096}}
	for f, combo := range wantCombos {
		for i := 0; i < len(base); i++ {
			c := cells[(f+1)*len(base)+i]
			if c.PayloadBytes != combo.pb || c.ByteBudget != combo.bud {
				t.Fatalf("family %d cell %d has payload=%d budget=%d, want %+v",
					f, i, c.PayloadBytes, c.ByteBudget, combo)
			}
		}
	}
}

func TestDefaultSweepHasByteAxes(t *testing.T) {
	sw := DefaultSweep()
	if len(sw.PayloadSizes) < 2 || len(sw.Budgets) < 2 {
		t.Fatalf("default sweep lacks byte axes: payloads=%v budgets=%v", sw.PayloadSizes, sw.Budgets)
	}
	if sw.PayloadSizes[0] != 0 || sw.Budgets[0] != 0 {
		t.Fatal("default byte combination must lead so legacy cells keep their positions")
	}
	cells := sw.Expand()
	if len(cells) != 576 {
		t.Fatalf("default matrix has %d cells, want 576 (384 rrmp + 192 rmtp)", len(cells))
	}
	for i := 0; i < 96; i++ {
		if cells[i].PayloadBytes != 0 || cells[i].ByteBudget != 0 || cells[i].Protocol != "" {
			t.Fatalf("legacy block cell %d engages a new axis: %+v", i, cells[i])
		}
	}
	pressure := 0
	for _, c := range cells[96:384] {
		if c.Protocol != "" {
			t.Fatalf("rrmp block cell %q carries a protocol token", c.Name())
		}
		if c.ByteBudget > 0 && c.PayloadBytes > 0 {
			pressure++
		}
	}
	if pressure != 96 {
		t.Fatalf("default matrix has %d genuine-pressure rrmp cells, want 96", pressure)
	}
	for i, c := range cells[384:] {
		if c.Protocol != "rmtp" || c.Policy != "server" {
			t.Fatalf("appended cell %d is not an rmtp/server cell: %+v", 384+i, c)
		}
	}
}

// TestSweepExpansionProtocolAxisAppends pins the protocol axis contract:
// the RRMP family expands first and is cell-for-cell the protocol-free
// matrix, and the RMTP family appends after it with the policy axis
// collapsed to "server".
func TestSweepExpansionProtocolAxisAppends(t *testing.T) {
	legacy := Sweep{
		Regions:      [][]int{{8}, {6, 6}},
		Losses:       []float64{0.05, 0.2},
		Policies:     []string{"two-phase", "fixed"},
		PayloadSizes: []int{0, 512},
	}
	augmented := legacy
	augmented.Protocols = []string{"rrmp", "rmtp"}

	base := legacy.Expand()
	cells := augmented.Expand()
	wantRMTP := len(base) / 2 // policy axis collapses for the baseline
	if len(cells) != len(base)+wantRMTP {
		t.Fatalf("augmented sweep has %d cells, want %d", len(cells), len(base)+wantRMTP)
	}
	for i, want := range base {
		if cells[i].Name() != want.Name() {
			t.Fatalf("rrmp cell %d moved: %q != %q", i, cells[i].Name(), want.Name())
		}
		if cells[i].Protocol != "" {
			t.Fatalf("rrmp cell %d not normalized to the canonical empty protocol: %+v", i, cells[i])
		}
	}
	for i, c := range cells[len(base):] {
		if c.Protocol != "rmtp" {
			t.Fatalf("appended cell %d has protocol %q, want rmtp", i, c.Protocol)
		}
		if c.Policy != "server" {
			t.Fatalf("rmtp cell %d has policy %q, want server", i, c.Policy)
		}
		if !strings.Contains(c.Name(), " proto=rmtp policy=server") {
			t.Fatalf("rmtp cell name %q lacks the protocol token", c.Name())
		}
	}
}

// TestScenarioNameProtocolToken pins the name rule: RRMP cells (empty or
// explicit) never carry a protocol token; rmtp cells always do.
func TestScenarioNameProtocolToken(t *testing.T) {
	sc := Scenario{Regions: []int{50}, Loss: 0.05, Policy: "two-phase"}
	base := sc.Name()
	sc.Protocol = "rrmp"
	if got := sc.Name(); got != base {
		t.Fatalf("explicit rrmp changed the name: %q != %q", got, base)
	}
	sc.Protocol = "rmtp"
	sc.Policy = "server"
	want := "regions=50 loss=0.05 churn=0 proto=rmtp policy=server"
	if got := sc.Name(); got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}
