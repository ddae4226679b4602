package runner

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/topology"
)

// benchTopo builds the construction-benchmark tree: 10k members at depth
// 3, the same shape as the BENCH_scale 10k row.
func benchTopo(tb testing.TB) *topology.Topology {
	tb.Helper()
	topo, err := topology.BalancedTree(4, 4, 10000)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// BenchmarkNewCluster tracks cluster construction — the setup path that
// used to dominate the 1M-member row (per-member peer-list copies,
// inRegion maps, transport boxes, rng splits, receive closures). The
// allocs/member and bytes/member metrics are what the microbench job
// watches; TestNewClusterAllocsPerMember pins the ceiling.
func BenchmarkNewCluster(b *testing.B) {
	topo := benchTopo(b)
	members := float64(topo.NumNodes())
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{Topo: topo, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = c
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perOp := 1 / (float64(b.N) * members)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)*perOp, "allocs/member")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)*perOp, "bytes/member")
}

// TestNewClusterAllocsPerMember is the AllocsPerRun-style guard on the
// setup path: constructing a cluster must stay under a fixed allocation
// and byte budget per member, so the wins that made the 1M-member row
// buildable (shared region views, range-check region membership, batched
// transports and rng streams, closure-free packet registration, sorted
// per-source slices made on first message, network tables sized once)
// cannot silently erode. Both budgets are headroom (about 13 % on bytes)
// over the measured 5.02 allocs and 810 B per member, not targets. The
// history: 33 allocs before the setup overhaul; 10.0 allocs and 1685 B
// while each member still made its per-source maps and the served map up
// front; 1101 B while the network regrew its per-node tables one
// registration at a time; 6.0 allocs and 1047 B while each member kept
// its own copy of the Params and built its own two-phase policy, before
// both moved to the region (rrmp.Region).
func TestNewClusterAllocsPerMember(t *testing.T) {
	if testing.Short() {
		t.Skip("construction macro-measurement; skipped with -short")
	}
	topo := benchTopo(t)
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := NewCluster(ClusterConfig{Topo: topo, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	members := float64(runs * topo.NumNodes())
	allocs := float64(after.Mallocs-before.Mallocs) / members
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / members
	const allocBudget, byteBudget = 6.0, 915.0
	if allocs > allocBudget {
		t.Errorf("NewCluster allocates %.1f/member; budget %.0f/member", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("NewCluster allocates %.0f B/member; budget %.0f B/member", bytes, byteBudget)
	}
	t.Logf("NewCluster: %.2f allocs and %.0f B per member (%d members)", allocs, bytes, topo.NumNodes())
}

// TestNewTreeClusterAllocsPerNode is TestNewClusterAllocsPerMember's twin
// for the RMTP baseline: NewTreeCluster wires nodes as NewCluster wires
// members (views, endpoints and rng streams from backing slices, nodes
// registered as their own packet receivers, maps made on first write), so
// a plain receiver costs its Node alone and the two repair servers of a
// 1000-node chain are noise. The budget is 2 objects per node over the
// measured 1.03; it was 10.07 objects and 2895 B per node while each node
// made five maps, a Post method value and two closures up front and the
// cluster copied every region's member list twice.
func TestNewTreeClusterAllocsPerNode(t *testing.T) {
	topo, err := topology.Chain(500, 500)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := NewTreeCluster(TreeClusterConfig{Topo: topo, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	nodes := float64(runs * topo.NumNodes())
	allocs := float64(after.Mallocs-before.Mallocs) / nodes
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	const allocBudget = 2.0
	if allocs > allocBudget {
		t.Errorf("NewTreeCluster allocates %.2f objects/node; budget %.0f/node", allocs, allocBudget)
	}
	t.Logf("NewTreeCluster: %.2f allocs and %.0f B per node (%d nodes)", allocs, bytes, topo.NumNodes())
}

// TestTrialBytesPerMember is the run-phase twin of
// TestNewClusterAllocsPerMember: one whole trial of scale100k's shape at
// 10k members (tree 8,4,10000, hash loss 0.05, ten messages, one lane,
// TrialSeed(1, 0)), construction included, must stay under a byte and an
// object budget per member. The trial is deterministic, so both budgets
// are 5 % headroom over the measured 2 422 B and 27.24 objects per
// member, tight enough to fail the 2 703 B and 30.18 objects the trial
// allocated while each member kept its own Params and policy and each
// buffer its own spare entries, before the region shared them
// (rrmp.Region). The counts are the process's MemStats deltas, so the
// test does not run in parallel.
func TestTrialBytesPerMember(t *testing.T) {
	if testing.Short() {
		t.Skip("trial macro-measurement; skipped with -short")
	}
	sc := exp.Scenario{
		Tree: &exp.TreeShape{Branch: 8, Levels: 4, Members: 10000},
		Loss: 0.05, LossMode: "hash", Policy: "two-phase",
		Msgs: 10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
		Shards: 1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunScenario(sc, exp.TrialSeed(1, 0)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	members := float64(sc.Tree.Members)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / members
	objects := float64(after.Mallocs-before.Mallocs) / members
	const byteBudget, objectBudget = 2545.0, 28.6
	if bytes > byteBudget {
		t.Errorf("a trial allocates %.0f B/member; budget %.0f B/member", bytes, byteBudget)
	}
	if objects > objectBudget {
		t.Errorf("a trial allocates %.1f objects/member; budget %.1f/member", objects, objectBudget)
	}
	t.Logf("trial: %.0f B and %.2f objects per member (%.1f MB, %.1fk objects)",
		bytes, objects, bytes*members/1e6, objects*members/1e3)
}
