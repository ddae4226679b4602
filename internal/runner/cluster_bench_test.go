package runner

import (
	"runtime"
	"testing"

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
// over the measured 6.0 allocs and 1047 B per member, not targets. The
// history: 33 allocs before the setup overhaul; 10.0 allocs and 1685 B
// while each member still made its per-source maps and the served map up
// front; 1101 B while the network regrew its per-node tables one
// registration at a time.
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
	const allocBudget, byteBudget = 7.0, 1190.0
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
