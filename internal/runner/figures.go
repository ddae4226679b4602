package runner

import (
	"fmt"
	"strconv"
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

// Figures is the evaluation, in print order: the paper's Figures 3–9
// (§4) and the DESIGN.md §4 ablations A1–A8. rrmp-figures prints and
// aggregates any of them; every driver returns a Table.
var Figures = []Figure{
	{ID: "3", Title: "Figure 3 — P(k long-term bufferers), region n=100", Runs: 1000,
		Run: func(runs int, seed uint64) (Table, error) {
			return figure3([]float64{5, 6, 7, 8}, 100, 20*runs, seed), nil
		}},
	{ID: "4", Title: "Figure 4 — P(no long-term bufferer) vs C (percent)", Runs: 1000,
		Run: func(runs int, seed uint64) (Table, error) {
			return figure4([]float64{1, 2, 3, 4, 5, 6}, 100, 100*runs, seed), nil
		}},
	{ID: "6", Title: "Figure 6 — mean buffering time vs #initial holders (n=100, T=40ms)", Runs: 20,
		Run: func(runs int, seed uint64) (Table, error) {
			return figure6([]int{1, 2, 4, 8, 16, 32, 64}, runs, seed)
		}},
	{ID: "7", Title: "Figure 7 — #received vs #buffered over time (1 initial holder, n=100)", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) {
			return figure7(100, seed, 5*time.Millisecond, 250*time.Millisecond)
		}},
	{ID: "8", Title: "Figure 8 — search time vs #bufferers (n=100)", Runs: 100, Run: figure8},
	{ID: "9", Title: "Figure 9 — search time vs region size (B=10)", Runs: 100, Run: figure9},
	{ID: "A1", Title: "Ablation A1 — buffering policy cost (n=100, 30 msgs, 10% loss)", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) { return ablationPolicies(seed) }},
	{ID: "A2", Title: "Ablation A2 — buffering load balance, RRMP vs tree repair server", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) { return ablationLoadBalance(seed) }},
	{ID: "A3", Title: "Ablation A3 — search reply implosion (replies per remote request)", Runs: 10,
		Run: ablationSearchImplosion},
	{ID: "A4", Title: "Ablation A4 — churn: graceful handoff vs crash of all bufferers", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) { return ablationChurn(seed) }},
	{ID: "A5", Title: "Ablation A5 — remote recovery λ sweep (region-wide loss, 50 members)", Runs: 10,
		Run: func(runs int, seed uint64) (Table, error) {
			return ablationLambda([]float64{0.5, 1, 2, 4, 8}, runs, seed)
		}},
	{ID: "A6", Title: "Ablation A6 — control traffic: implicit feedback vs stability digests", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) { return ablationStabilityTraffic(seed) }},
	{ID: "A7", Title: "Ablation A7 — VoD prefix-push: late joiners vs buffering policy", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) { return ablationVoDPrefixPush(seed) }},
	{ID: "A8", Title: "Ablation A8 — bursty demand: adaptive vs two-phase vs fixed (fitness-ranked)", Runs: 1,
		Run: func(_ int, seed uint64) (Table, error) { return ablationAdaptiveDemand(seed) }},
}

// figure3 reproduces the paper's Figure 3: the probability (%) that k
// members buffer an idle message for C in cs, in a region of n members.
// For each C it gives the analytic Poisson curve and a Monte Carlo curve
// obtained by running the actual election code (core.TwoPhase.OnIdle)
// trials times.
func figure3(cs []float64, n, trials int, seed uint64) Table {
	const kMax = 20
	var names []string
	ys := make([][]float64, kMax+1)
	r := rng.New(seed)
	for _, c := range cs {
		names = append(names, fmt.Sprintf("C=%g analytic", c), fmt.Sprintf("C=%g simulated (n=%d)", c, n))
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
		for k := range ys {
			ys[k] = append(ys[k], 100*analytic.PoissonPMF(c, k), 100*float64(counts[k])/float64(trials))
		}
	}
	t := seriesTable("k", names...)
	for k, y := range ys {
		t.add([]string{strconv.Itoa(k)}, y...)
	}
	return t
}

// figure4 reproduces Figure 4: the probability (%) that no member becomes
// a long-term bufferer, versus C: the analytic e^(−C) curve and a Monte
// Carlo curve from the real election code.
func figure4(cs []float64, n, trials int, seed uint64) Table {
	r := rng.New(seed)
	t := seriesTable("C", "analytic e^-C", fmt.Sprintf("simulated (n=%d)", n))
	for _, c := range cs {
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
		t.add([]string{fmt.Sprintf("%g", c)},
			100*analytic.ProbNoLongTermBufferer(c), 100*float64(none)/float64(trials))
	}
	return t
}

// fig6Region is Figure 6's region size n (the paper's 100).
const fig6Region = 100

// figure6 reproduces Figure 6: mean short-term buffering time of the
// members that held the message initially, versus the number of initial
// holders, each point averaged over runs. A region of fig6Region members
// is constructed; k random members receive the message at t=0; every
// other member simultaneously detects the loss and runs local recovery.
// Buffering time is the time until the message becomes idle at each
// initial holder (the y-axis of the paper's figure; log scale when
// plotted).
func figure6(holders []int, runs int, seed uint64) (Table, error) {
	t := seriesTable("#holders", fmt.Sprintf("mean buffering time, n=%d, %d runs", fig6Region, runs))
	for _, k := range holders {
		var hist stats.Histogram
		for run := 0; run < runs; run++ {
			if err := fig6Run(k, seed+uint64(run)*7919, &hist); err != nil {
				return Table{}, err
			}
		}
		t.add([]string{strconv.Itoa(k)}, hist.Mean())
	}
	return t, nil
}

func fig6Run(k int, seed uint64, hist *stats.Histogram) error {
	topo, err := topology.SingleRegion(fig6Region)
	if err != nil {
		return err
	}
	params := rrmp.DefaultParams()
	params.C = 0           // isolate the short-term phase (§3.1)
	params.LongTermTTL = 0 // irrelevant with C=0

	holders := make(map[topology.NodeID]bool, k)
	// Choose the k initial holders with the harness stream.
	pick := rng.New(seed).Split(figureHolderStreamLabel)
	perm := pick.Perm(fig6Region)
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

// figure7 reproduces Figure 7: starting from one initial holder in a
// region of n members, it samples #received and #buffered every
// sampleEvery until horizon. The catalogue's 250 ms horizon runs past the
// paper's 140 ms x-range so the buffered count's collapse to zero is
// visible in full.
func figure7(n int, seed uint64, sampleEvery, horizon time.Duration) (Table, error) {
	topo, err := topology.SingleRegion(n)
	if err != nil {
		return Table{}, err
	}
	params := rrmp.DefaultParams()
	params.C = 0
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
	if err != nil {
		return Table{}, err
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	holder := topology.NodeID(c.Root.Intn(n))
	c.Members[holder].InjectDeliver(id, []byte("fig7"))
	for _, node := range c.All {
		if node != holder {
			c.Members[node].StartRecovery(id)
		}
	}

	t := Table{
		Labels: []Column{{Head: "t(ms)", Width: 10}},
		Cols:   []Column{{Head: "#received", Width: 10, Verb: "%.0f"}, {Head: "#buffered", Width: 10, Verb: "%.0f"}},
	}
	for at := time.Duration(0); at <= horizon; at += sampleEvery {
		at := at
		c.Engine.At(at, func() {
			t.add([]string{fmt.Sprintf("%.0f", float64(at)/1e6)},
				float64(c.CountReceived(id)), float64(c.CountBuffered(id)))
		})
	}
	c.Engine.RunUntil(horizon)
	return t, nil
}
