package runner

import (
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/exp"
)

// envShards returns the RRMP_SHARDS override (the CI race job sets it to
// run the whole runner suite through the sharded engine) or def when the
// variable is absent or malformed.
func envShards(def int) int {
	if v := os.Getenv("RRMP_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return def
}

// shardWidths are the widths every differential case compares against the
// serial engine. An RRMP_SHARDS override joins the list so the CI matrix
// width is always among the proven-equivalent ones.
func shardWidths() []int {
	widths := []int{2, 8}
	if n := envShards(0); n > 1 && n != 2 && n != 8 {
		widths = append(widths, n)
	}
	return widths
}

// atWidth is RunScenario with every trial asking for n lanes in place of
// its share of the CPU budget — the test-only width override.
func atWidth(n int) exp.ScenarioFunc {
	return func(sc exp.Scenario, seed uint64) (map[string]float64, error) {
		sc.Shards = n
		return RunScenario(sc, seed)
	}
}

// sweepAtShards runs the sweep at n lanes per trial and returns the
// report's canonical JSON — the exact bytes the determinism contract
// covers.
func sweepAtShards(t *testing.T, sw exp.Sweep, o exp.Options, n int) string {
	t.Helper()
	rep, err := exp.RunSweeps(o, []exp.Sweep{sw}, atWidth(n))
	if err != nil {
		t.Fatalf("shards=%d: %v", n, err)
	}
	return fmtReport(t, rep)
}

// TestShardedSweepByteIdentical is the tentpole's acceptance gate: the
// region-sharded engine must produce byte-identical sweep reports at every
// shard width, across the legacy miniature (both protocols, every fault
// axis), hash-mode loss (the only loss model that runs genuinely
// parallel), and the byte-currency axes. Cells whose loss model draws
// from the legacy shared stream fall back to serial inside RunScenario,
// so their equality is structural; lossless and hash-loss cells exercise
// real cross-shard windows, outbox merges and barrier faults.
func TestShardedSweepByteIdentical(t *testing.T) {
	trials := 2
	if testing.Short() {
		trials = 1
	}
	cases := []struct {
		name string
		sw   exp.Sweep
	}{
		{
			// The pinned-golden miniature (regions 8 and 6,6 across every
			// legacy fault axis, both protocols): ~96 cells. Lossy cells
			// of either protocol take the serial fallback.
			name: "golden-miniature",
			sw: func() exp.Sweep {
				sw := exp.DefaultSweep()
				sw.Regions = [][]int{{8}, {6, 6}}
				sw.PayloadSizes = []int{0}
				sw.Budgets = []int{0}
				return sw
			}(),
		},
		{
			// Hash-mode loss runs lossy cells of both protocols genuinely
			// parallel: the per-sender counter hash makes drop decisions
			// shard-local.
			name: "hash-loss",
			sw: exp.Sweep{
				Protocols: []string{"rrmp", "rmtp"},
				Regions:   [][]int{{8}, {6, 6}},
				Losses:    []float64{0.05, 0.2},
				LossMode:  "hash",
				Churns:    []float64{0, 1},
				Crashes:   []float64{0, 1},
				Policies:  []string{"two-phase"},
				Msgs:      12,
				Horizon:   3 * time.Second,
			},
		},
		{
			// Hash-mode burst loss: the Gilbert–Elliott chains advance on
			// per-pair counter-hash draws (netsim.HashBurstLoss), so the
			// burst family — formerly a guaranteed serial fallback — must
			// hold byte-identity through real parallel windows too.
			name: "burst-hash",
			sw: exp.Sweep{
				Protocols: []string{"rrmp", "rmtp"},
				Regions:   [][]int{{8}, {6, 6}},
				Losses:    []float64{0.05, 0.2},
				LossMode:  "hash",
				Burst:     true,
				Churns:    []float64{0, 1},
				Policies:  []string{"two-phase"},
				Msgs:      12,
				Horizon:   3 * time.Second,
			},
		},
		{
			// Lossless fault cells with the byte-currency axes engaged:
			// crash, partition, churn, payload accounting and budget
			// eviction all run through real parallel windows.
			name: "faults-budget",
			sw: exp.Sweep{
				Protocols:    []string{"rrmp", "rmtp"},
				Regions:      [][]int{{6, 6}},
				Losses:       []float64{0},
				Churns:       []float64{0, 1},
				Crashes:      []float64{0, 1},
				Partitions:   []time.Duration{0, time.Second},
				Policies:     []string{"two-phase", "fixed"},
				PayloadSizes: []int{1024},
				Budgets:      []int{8192},
				Msgs:         12,
				Horizon:      3 * time.Second,
			},
		},
		{
			// The multi-client workload family (hash loss, so every rrmp
			// cell runs genuinely parallel): pre-materialized timelines and
			// per-sender hash loss keep multi-publisher cells — and the VoD
			// late-join schedule — shard-safe by construction; this pins it.
			name: "workload-family",
			sw: func() exp.Sweep {
				sw := exp.WorkloadSweep()
				sw.Regions = [][]int{{8, 8}}
				return sw
			}(),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := exp.Options{Trials: trials, BaseSeed: 1}
			serial := sweepAtShards(t, tc.sw, o, 1)
			for _, n := range shardWidths() {
				if got := sweepAtShards(t, tc.sw, o, n); got != serial {
					t.Errorf("shards=%d report differs from serial", n)
				}
			}
		})
	}
}

// TestShardedScenarioMatchesSerial drills one genuinely-parallel scenario
// (deep tree, hash loss, churn) down to the per-metric level so a
// divergence names the metric instead of just "bytes differ".
func TestShardedScenarioMatchesSerial(t *testing.T) {
	sc := exp.Scenario{
		Tree:     &exp.TreeShape{Branch: 3, Levels: 3, Members: 120},
		Loss:     0.1,
		LossMode: "hash",
		Churn:    1,
		Policy:   "two-phase",
		Msgs:     15,
		Gap:      20 * time.Millisecond,
		Horizon:  3 * time.Second,
	}
	serial, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardWidths() {
		sc := sc
		sc.Shards = n
		got, err := RunScenario(sc, 7)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("shards=%d: %d metrics, serial has %d", n, len(got), len(serial))
		}
		for k, v := range serial {
			if got[k] != v {
				t.Errorf("shards=%d: metric %q = %v, serial %v", n, k, got[k], v)
			}
		}
	}
}
