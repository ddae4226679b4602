package runner

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestTotalsMeansMatchSampleLists pins that the running means members keep
// pool to the same bits as the sample lists they replaced. On a lossy
// two-region cell every buffering and recovery sample is also collected
// through the member hooks into a per-member list; the lists are pooled as
// Totals pools (mean × count, member by member, divided once), and
// MeanBufferingMs and MeanRecoveryMs must equal the result bit for bit, as
// must each member's own two means.
func TestTotalsMeansMatchSampleLists(t *testing.T) {
	topo, err := topology.Chain(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	params := rrmp.DefaultParams()
	params.LongTermTTL = time.Second // long-term copies are evicted within the horizon too
	buffering := make([]stats.Histogram, topo.NumNodes())
	recovery := make([]stats.Histogram, topo.NumNodes())
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
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
						buffering[n].Add(ms(c.Engine.Now() - e.StoredAt))
					}
				},
				OnRecovered: func(_ wire.MessageID, latency time.Duration) { recovery[n].Add(ms(latency)) },
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
			want *stats.Histogram
		}{
			{"BufferingTime", m.Buffer().BufferingTime(), &buffering[n]},
			{"RecoveryLatency", &mm.RecoveryLatency, &recovery[n]},
		} {
			if tc.got.N() != tc.want.N() || math.Float64bits(tc.got.Mean()) != math.Float64bits(tc.want.Mean()) {
				t.Errorf("member %d %s: mean %v over %d, sample list %v over %d", n, tc.name, tc.got.Mean(), tc.got.N(), tc.want.Mean(), tc.want.N())
			}
		}
	}

	pooled := func(hs []stats.Histogram) (mean float64, n float64) {
		var sum float64
		for i := range hs {
			sum += hs[i].Mean() * float64(hs[i].N())
			n += float64(hs[i].N())
		}
		return sum / n, n
	}
	for _, tc := range []struct {
		name string
		got  float64
		hs   []stats.Histogram
	}{
		{"MeanBufferingMs", tot.MeanBufferingMs, buffering},
		{"MeanRecoveryMs", tot.MeanRecoveryMs, recovery},
	} {
		want, n := pooled(tc.hs)
		if n < 100 {
			t.Fatalf("%s: %v samples; the cell should produce hundreds", tc.name, n)
		}
		if math.Float64bits(tc.got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), sample lists pool to %v (%#x)", tc.name, tc.got, math.Float64bits(tc.got), want, math.Float64bits(want))
		}
	}
}
