package runner

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/topology"
	"repro/internal/workload"
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
// cannot silently erode. Both budgets are 5 % headroom over the measured
// 0.0187 allocs and 612 B per member, not targets: the members and their
// rng streams come from two slices and share one transport, so what is
// left is per region (the rrmp.Region and its two-phase policy) and per
// cluster. The history: 33 allocs before the setup overhaul; 10.0 allocs
// and 1685 B while each member still made its per-source maps and the
// served map up front; 1101 B while the network regrew its per-node tables
// one registration at a time; 6.0 allocs and 1047 B while each member kept
// its own copy of the Params and built its own two-phase policy, before
// both moved to the region (rrmp.Region); 5.02 allocs and 810 B while each
// member was its own Member, Buffer, index header, rng split and eviction
// closure, before the members were made in one slab holding the rest
// inline; 811 B while each member held its own transport, hooks,
// detector and fault metrics, beside an endpoint of its own.
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
	const allocBudget, byteBudget = 0.0196, 642.0
	if allocs > allocBudget {
		t.Errorf("NewCluster allocates %.4f/member; budget %.2f/member", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("NewCluster allocates %.0f B/member; budget %.0f B/member", bytes, byteBudget)
	}
	t.Logf("NewCluster: %.4f allocs and %.1f B per member (%d members)", allocs, bytes, topo.NumNodes())
}

// TestNewTreeClusterAllocsPerNode is TestNewClusterAllocsPerMember's twin
// for the RMTP baseline: NewTreeCluster wires nodes as NewCluster wires
// members (views and rng streams from backing slices, one netsim.Group
// for all, nodes registered as their own packet receivers, maps made on
// first write), so
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
// TestNewClusterAllocsPerMember: one whole trial of each bench workload's
// shape, construction included, at TrialSeed(1, 0) on one lane, must stay
// under a byte and an object budget per member. The rows are scale100k's
// shape at 10k members (tree 8,4,10000, hash loss 0.05, ten messages),
// stream10k's scenario (tree 4,4,10000, lossless, 50 messages) and
// pressure300's (three regions of 100, hash loss 0.2, the adaptive policy
// under a 16 KB budget, four bursty sources). Each trial is
// deterministic, so every budget is about 5 % headroom over its row's
// measurement, given beside it (a budget only ever tightens, so two sit
// 4.9 % over). pressure300 read 125.47 objects per member while Totals
// built a list of each member's unrecovered messages to count them. The
// scale and stream rows fail the tree before members
// held only their hot state (2 216 and 2 539 B per member then), and all
// three fail it before timers fired their owners (2 025, 2 347 and
// 24 607 B; 18.34, 17.13 and 159.49 objects per member, when every
// buffered copy and every rrmp episode record bound its callbacks). The
// counts are the process's MemStats deltas, so the test does not run in
// parallel, and they count what the runtime allocates for itself in the
// meantime too: counted on every core with no warm-up, three runs read
// pressure300 at 125.19, 125.21 and 125.21 objects per member. So each row
// runs its trial once unmeasured, to fill the runtime's and the process's
// first-use state, then counts its twin at GOMAXPROCS=1. Eight runs of one
// test binary then differ by at most one object and 96 B per trial (the
// log line gives the exact counts).
func TestTrialBytesPerMember(t *testing.T) {
	if testing.Short() {
		t.Skip("trial macro-measurement; skipped with -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range []struct {
		name                  string
		members               int
		sc                    exp.Scenario
		byteBudget, objBudget float64 // per member
	}{
		{
			name: "scale100k@10k", members: 10000, byteBudget: 1885, objBudget: 13.14, // 1 794 B, 12.51
			sc: exp.Scenario{
				Tree: &exp.TreeShape{Branch: 8, Levels: 4, Members: 10000},
				Loss: 0.05, LossMode: "hash", Policy: "two-phase",
				Msgs: 10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
			},
		},
		{
			name: "stream10k", members: 10000, byteBudget: 2234, objBudget: 12.34, // 2 127 B, 11.76
			sc: exp.Scenario{
				Tree:   &exp.TreeShape{Branch: 4, Levels: 4, Members: 10000},
				Policy: "two-phase",
				Msgs:   50, Gap: 20 * time.Millisecond, Horizon: 3 * time.Second,
			},
		},
		{
			name: "pressure300", members: 300, byteBudget: 24937, objBudget: 131.47, // 23 758 B, 125.19
			sc: exp.Scenario{
				Regions: []int{100, 100, 100},
				Loss:    0.2, LossMode: "hash",
				Policy:     "adaptive",
				ByteBudget: 16384,
				Horizon:    10 * time.Second,
				Workload: &workload.Spec{
					Clients: 4, Msgs: 240,
					Arrival: workload.ArrivalBurst, Gap: 200 * time.Millisecond,
					BurstLen: 8, BurstGap: 2 * time.Millisecond,
					SizeModel: workload.SizeLognormal, SizeMean: 1024,
				},
			},
		},
	} {
		sc := row.sc
		sc.Shards = 1
		members := float64(row.members)
		if _, err := RunScenario(sc, exp.TrialSeed(1, 0)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := RunScenario(sc, exp.TrialSeed(1, 0)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / members
		objects := float64(after.Mallocs-before.Mallocs) / members
		if bytes > row.byteBudget {
			t.Errorf("%s: a trial allocates %.0f B/member; budget %.0f B/member", row.name, bytes, row.byteBudget)
		}
		if objects > row.objBudget {
			t.Errorf("%s: a trial allocates %.2f objects/member; budget %.2f/member", row.name, objects, row.objBudget)
		}
		t.Logf("%s: %.0f B and %.2f objects per member (%d B, %d objects)",
			row.name, bytes, objects, after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
	}
}
