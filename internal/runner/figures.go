package runner

import (
	"fmt"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// figureHolderStreamLabel derives the figure harness's holder-pick stream
// (Figure 6's k initial long-term holders), independent of the member
// streams so regenerating figures never perturbs protocol draws.
const figureHolderStreamLabel = 0xf16

// Series is one named curve: paired X/Y points in figure units.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure3 reproduces the paper's Figure 3: the probability that k members
// buffer an idle message for C in cs, in a region of n members. For each C
// it returns the analytic Poisson curve and a Monte Carlo curve obtained by
// running the actual election code (core.TwoPhase.OnIdle) trials times.
func Figure3(cs []float64, n, trials int, seed uint64) []Series {
	out := make([]Series, 0, 2*len(cs))
	r := rng.New(seed)
	const kMax = 20
	for _, c := range cs {
		analytic1 := Series{Name: fmt.Sprintf("C=%g analytic", c)}
		for k := 0; k <= kMax; k++ {
			analytic1.X = append(analytic1.X, float64(k))
			analytic1.Y = append(analytic1.Y, 100*analytic.PoissonPMF(c, k))
		}
		out = append(out, analytic1)

		policy := core.NewTwoPhase(time.Millisecond, c, n, 0)
		counts := make([]int, kMax+1)
		for trial := 0; trial < trials; trial++ {
			k := 0
			for member := 0; member < n; member++ {
				if policy.OnIdle(wire.MessageID{Seq: uint64(trial)}, r) == core.PromoteLongTerm {
					k++
				}
			}
			if k <= kMax {
				counts[k]++
			}
		}
		sim1 := Series{Name: fmt.Sprintf("C=%g simulated (n=%d)", c, n)}
		for k := 0; k <= kMax; k++ {
			sim1.X = append(sim1.X, float64(k))
			sim1.Y = append(sim1.Y, 100*float64(counts[k])/float64(trials))
		}
		out = append(out, sim1)
	}
	return out
}

// Figure4 reproduces Figure 4: the probability (%) that no member becomes a
// long-term bufferer, versus C. Returns the analytic e^(−C) curve and a
// Monte Carlo curve from the real election code.
func Figure4(cs []float64, n, trials int, seed uint64) []Series {
	r := rng.New(seed)
	analytic1 := Series{Name: "analytic e^-C"}
	mc := Series{Name: fmt.Sprintf("simulated (n=%d)", n)}
	for _, c := range cs {
		analytic1.X = append(analytic1.X, c)
		analytic1.Y = append(analytic1.Y, 100*analytic.ProbNoLongTermBufferer(c))

		policy := core.NewTwoPhase(time.Millisecond, c, n, 0)
		none := 0
		for trial := 0; trial < trials; trial++ {
			elected := false
			for member := 0; member < n && !elected; member++ {
				elected = policy.OnIdle(wire.MessageID{Seq: uint64(trial)}, r) == core.PromoteLongTerm
			}
			if !elected {
				none++
			}
		}
		mc.X = append(mc.X, c)
		mc.Y = append(mc.Y, 100*float64(none)/float64(trials))
	}
	return []Series{analytic1, mc}
}

// Fig6Config parameterizes the Figure 6 experiment.
type Fig6Config struct {
	// RegionSize is n (paper: 100).
	RegionSize int
	// InitialHolders are the x-axis values (paper: 1,2,4,8,16,32,64).
	InitialHolders []int
	// Runs averages each point over this many seeded repetitions.
	Runs int
	// Seed roots the randomness.
	Seed uint64
}

// DefaultFig6Config returns the paper's §4 settings.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		RegionSize:     100,
		InitialHolders: []int{1, 2, 4, 8, 16, 32, 64},
		Runs:           20,
		Seed:           1,
	}
}

// Figure6 reproduces Figure 6: mean short-term buffering time of the
// members that held the message initially, versus the number of initial
// holders. A region of RegionSize members is constructed; k random members
// receive the message at t=0; every other member simultaneously detects the
// loss and runs local recovery. Buffering time is the time until the
// message becomes idle at each initial holder (the y-axis of the paper's
// figure; log scale when plotted).
func Figure6(cfg Fig6Config) (Series, error) {
	series := Series{Name: fmt.Sprintf("mean buffering time, n=%d, %d runs", cfg.RegionSize, cfg.Runs)}
	for _, k := range cfg.InitialHolders {
		var hist stats.Histogram
		for run := 0; run < cfg.Runs; run++ {
			if err := fig6Run(cfg, k, cfg.Seed+uint64(run)*7919, &hist); err != nil {
				return Series{}, err
			}
		}
		series.X = append(series.X, float64(k))
		series.Y = append(series.Y, hist.Mean())
	}
	return series, nil
}

func fig6Run(cfg Fig6Config, k int, seed uint64, hist *stats.Histogram) error {
	topo, err := topology.SingleRegion(cfg.RegionSize)
	if err != nil {
		return err
	}
	params := rrmp.DefaultParams()
	params.C = 0           // isolate the short-term phase (§3.1)
	params.LongTermTTL = 0 // irrelevant with C=0

	holders := make(map[topology.NodeID]bool, k)
	// Choose the k initial holders with the harness stream.
	pick := rng.New(seed).Split(figureHolderStreamLabel)
	perm := pick.Perm(cfg.RegionSize)
	for i := 0; i < k; i++ {
		holders[topology.NodeID(perm[i])] = true
	}

	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Hooks: func(n topology.NodeID) rrmp.Hooks {
			if !holders[n] {
				return rrmp.Hooks{}
			}
			return rrmp.Hooks{
				OnEvict: func(e *core.Entry, reason core.EvictReason) {
					if reason == core.EvictIdle {
						hist.Add(float64(e.LastRequest+params.IdleThreshold-e.StoredAt) / 1e6)
					}
				},
			}
		},
	})
	if err != nil {
		return err
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	for n := range holders {
		c.Members[n].InjectDeliver(id, []byte("fig6"))
	}
	for _, n := range c.All {
		if !holders[n] {
			c.Members[n].StartRecovery(id)
		}
	}
	// No Shards asked for, so the engine is the single loop, whose
	// MustQuiesce bounds a runaway recovery.
	c.Engine.(*sim.Sim).MustQuiesce(10_000_000)
	return nil
}

// Fig7Series is the Figure 7 output: the number of members that have
// received the message and the number still buffering it, sampled over
// time.
type Fig7Series struct {
	TimesMs  []float64
	Received []int
	Buffered []int
}

// Figure7 reproduces Figure 7: starting from one initial holder in a region
// of n members, it samples #received and #buffered every sampleEvery until
// horizon.
func Figure7(n int, seed uint64, sampleEvery, horizon time.Duration) (Fig7Series, error) {
	topo, err := topology.SingleRegion(n)
	if err != nil {
		return Fig7Series{}, err
	}
	params := rrmp.DefaultParams()
	params.C = 0
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
	if err != nil {
		return Fig7Series{}, err
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	holder := topology.NodeID(c.Root.Intn(n))
	c.Members[holder].InjectDeliver(id, []byte("fig7"))
	for _, node := range c.All {
		if node != holder {
			c.Members[node].StartRecovery(id)
		}
	}

	var out Fig7Series
	for at := time.Duration(0); at <= horizon; at += sampleEvery {
		at := at
		c.Engine.At(at, func() {
			out.TimesMs = append(out.TimesMs, float64(at)/1e6)
			out.Received = append(out.Received, c.CountReceived(id))
			out.Buffered = append(out.Buffered, c.CountBuffered(id))
		})
	}
	c.Engine.RunUntil(horizon)
	return out, nil
}
