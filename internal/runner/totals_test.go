package runner

import (
	"math"
	"math/big"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestTotalsMeansMatchSampleLists pins that the running means members keep
// and Totals pools are the exact means of their samples, rounded once. On
// a lossy two-region cell every buffering and recovery sample is also
// collected through the member hooks into a per-member list of durations;
// each member's two means, and MeanBufferingMs and MeanRecoveryMs over
// all members, must read the bits of Σ/(n·10⁶) computed in rationals and
// rounded to the nearest float64.
func TestTotalsMeansMatchSampleLists(t *testing.T) {
	topo, err := topology.Chain(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	params := rrmp.DefaultParams()
	params.LongTermTTL = time.Second // long-term copies are evicted within the horizon too
	buffering := make([][]time.Duration, topo.NumNodes())
	recovery := make([][]time.Duration, topo.NumNodes())
	// The hooks read the cluster's clock; they fire only once it runs.
	var c *Cluster
	c, err = NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   7,
		Loss: &netsim.BernoulliLoss{
			P:    0.2,
			Only: map[wire.Type]bool{wire.TypeData: true},
			Rng:  rng.New(7),
		},
		Hooks: func(n topology.NodeID) rrmp.Hooks {
			return rrmp.Hooks{
				OnEvict: func(e *core.Entry, r core.EvictReason) {
					if r != core.EvictHandoff {
						buffering[n] = append(buffering[n], c.Engine.Now()-e.StoredAt)
					}
				},
				OnRecovered: func(_ wire.MessageID, latency time.Duration) { recovery[n] = append(recovery[n], latency) },
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Sender.StartSessions()
	for i := range 40 {
		c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64)) })
	}
	c.Engine.RunUntil(5 * time.Second)
	tot := c.Totals()
	for n, m := range c.Members {
		mm := m.Metrics()
		for _, tc := range []struct {
			name string
			got  *stats.RunningMean
			want []time.Duration
		}{
			{"BufferingTime", m.Buffer().BufferingTime(), buffering[n]},
			{"RecoveryLatency", &mm.RecoveryLatency, recovery[n]},
		} {
			if want := exactMeanMs(tc.want); tc.got.N() != len(tc.want) || math.Float64bits(tc.got.Mean()) != math.Float64bits(want) {
				t.Errorf("member %d %s: mean %v over %d, exact %v over %d", n, tc.name, tc.got.Mean(), tc.got.N(), want, len(tc.want))
			}
		}
	}
	for _, tc := range []struct {
		name  string
		got   float64
		lists [][]time.Duration
	}{
		{"MeanBufferingMs", tot.MeanBufferingMs, buffering},
		{"MeanRecoveryMs", tot.MeanRecoveryMs, recovery},
	} {
		all := slices.Concat(tc.lists...)
		if len(all) < 100 {
			t.Fatalf("%s: %d samples; the cell should produce hundreds", tc.name, len(all))
		}
		if want := exactMeanMs(all); math.Float64bits(tc.got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), exact %v (%#x)", tc.name, tc.got, math.Float64bits(tc.got), want, math.Float64bits(want))
		}
	}
}

// exactMeanMs is the mean of ds in milliseconds, computed in rationals and
// rounded once to the nearest float64 (0 for no samples).
func exactMeanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sum := new(big.Int)
	for _, d := range ds {
		sum.Add(sum, big.NewInt(int64(d)))
	}
	mean, _ := new(big.Rat).SetFrac(sum, big.NewInt(int64(len(ds))*int64(time.Millisecond))).Float64()
	return mean
}

// TestFixedHoldIntegralIsExact pins that a fixed-hold cell's buffer cost is
// the product it must be. In the sweep cell "regions=50 loss=0.05 churn=0
// policy=fixed" and its 1 KiB-payload twin every member holds each of the
// 20 messages for exactly the 500ms hold, so every trial's
// buffer_integral_msgsec is 20 × 50 × 0.5 s = 500 and, with 1 KiB
// payloads, buffer_integral_bytesec is 1024 times that, to the bit.
func TestFixedHoldIntegralIsExact(t *testing.T) {
	cells := map[string]bool{
		"regions=50 loss=0.05 churn=0 policy=fixed":              false,
		"regions=50 loss=0.05 churn=0 payload=1024 policy=fixed": true,
	}
	found := 0
	for _, sc := range exp.DefaultSweep().Expand() {
		payload, ok := cells[sc.Name()]
		if !ok {
			continue
		}
		found++
		want := float64(sc.Msgs*sc.Regions[0]) * sc.FixedHold.Seconds()
		for trial := range 8 {
			out, err := RunScenario(sc, exp.TrialSeed(1, trial))
			if err != nil {
				t.Fatal(err)
			}
			if got := out[MKBufferIntegralMsgSec]; got != want {
				t.Errorf("%s trial %d: %s = %v, want exactly %v", sc.Name(), trial, MKBufferIntegralMsgSec, got, want)
			}
			if got, ok := out[MKBufferIntegralByteSec]; payload && (!ok || got != 1024*want) {
				t.Errorf("%s trial %d: %s = %v, want exactly %v", sc.Name(), trial, MKBufferIntegralByteSec, got, 1024*want)
			}
		}
	}
	if found != len(cells) {
		t.Fatalf("found %d of the %d cells in the default sweep", found, len(cells))
	}
}

// TestTotalsIndependentOfMemberOrder pins that Totals sums exactly: on a
// lossy five-region cell of each protocol, with copies evicted and still
// held, summing the members in shuffled orders gives totals bit-equal to
// those in node order. Both cells fail it when members' float integrals
// and means are added as floats.
func TestTotalsIndependentOfMemberOrder(t *testing.T) {
	topo, err := topology.Chain(8, 8, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() netsim.LossModel {
		return &netsim.BernoulliLoss{P: 0.2, Only: map[wire.Type]bool{wire.TypeData: true}, Rng: rng.New(11)}
	}
	shuffles := func(t *testing.T, totals func() Totals, permute func(p []int)) {
		t.Helper()
		want := totals()
		if want.BufferIntegral == 0 || want.MeanRecoveryMs == 0 || want.MeanBufferingMs == 0 {
			t.Fatalf("degenerate cell: %+v", want)
		}
		r := rng.New(3)
		for range 8 {
			permute(r.Perm(topo.NumNodes()))
			if got := totals(); got != want {
				t.Fatalf("shuffled members total\n %+v\nnode order totals\n %+v", got, want)
			}
		}
	}
	t.Run("rrmp", func(t *testing.T) {
		params := rrmp.DefaultParams()
		params.LongTermTTL = time.Second
		c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: 5, Loss: loss()})
		if err != nil {
			t.Fatal(err)
		}
		c.Sender.StartSessions()
		for i := range 60 {
			c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64+i)) })
		}
		c.Engine.RunUntil(1500 * time.Millisecond)
		members := slices.Clone(c.Members)
		shuffles(t, c.Totals, func(p []int) {
			for i, j := range p {
				c.Members[i] = members[j]
			}
		})
	})
	t.Run("rmtp", func(t *testing.T) {
		c, err := NewTreeCluster(TreeClusterConfig{Topo: topo, Seed: 5, Loss: loss()})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes {
			n.StartAcks()
		}
		for i := range 60 {
			c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64+i)) })
		}
		c.Engine.RunUntil(1500 * time.Millisecond)
		nodes := slices.Clone(c.Nodes)
		shuffles(t, c.totals, func(p []int) {
			for i, j := range p {
				c.Nodes[i] = nodes[j]
			}
		})
	})
}

// TestWideSumRoundsOnce pins the two-word sum Totals adds integrals and
// latency sums in: it carries into the high word, and its float is the
// exact sum rounded once to the nearest float64, ties to even, as
// big.Float rounds it. The fixed cases sit on and just off a tie above
// 2⁶⁴, where only the sticky bit tells them apart.
func TestWideSumRoundsOnce(t *testing.T) {
	check := func(vs ...int64) {
		t.Helper()
		var w wide
		exact := new(big.Int)
		for _, v := range vs {
			w.add(v)
			exact.Add(exact, big.NewInt(v))
		}
		want, _ := new(big.Float).SetInt(exact).Float64()
		if got := w.float(); got != want {
			t.Fatalf("sum of %v: %v (%#x), exact sum %v rounds to %v (%#x)", vs, got, math.Float64bits(got), exact, want, math.Float64bits(want))
		}
	}
	check()
	check(math.MaxInt64, math.MaxInt64, 2, 1<<11)   // 2⁶⁴ + 2¹¹: a tie, to even
	check(math.MaxInt64, math.MaxInt64, 2, 1<<11+1) // just above the tie
	check(math.MaxInt64, math.MaxInt64, 2, 1<<12+1<<11)
	r := rng.New(9)
	for range 5000 {
		vs := make([]int64, 1+r.Intn(40))
		for i := range vs {
			vs[i] = int64(r.Uint64() >> (1 + r.Uint64()%63))
		}
		check(vs...)
	}
}
