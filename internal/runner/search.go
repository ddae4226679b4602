package runner

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rrmp"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// SearchConfig parameterizes the Figure 8 / Figure 9 search-time
// experiments (§3.3, §4).
type SearchConfig struct {
	// RegionSize is the size of the region searched (paper: 100 for
	// Figure 8; 100..1000 for Figure 9).
	RegionSize int
	// Bufferers is the number of long-term bufferers holding the idle
	// message (paper: 1..10 for Figure 8; 10 for Figure 9).
	Bufferers int
	// Runs averages over this many repetitions with different seeds
	// (paper: 100).
	Runs int
	// Seed roots the randomness.
	Seed uint64
	// Deterministic switches the region to the hash-elect policy of §3.4:
	// bufferer sets are computable, so the probe routes directly instead
	// of walking randomly.
	Deterministic bool
}

// SearchResult aggregates one search-time configuration.
type SearchResult struct {
	Config       SearchConfig
	SearchTimeMs stats.Summary
	// Forwards is the mean number of SEARCH transmissions per episode.
	Forwards float64
	// FailedRuns counts runs where the search did not resolve (should be
	// zero whenever Bufferers >= 1).
	FailedRuns int
}

// RunSearch measures the search time: a remote request for a message that
// has become idle region-wide arrives at a uniformly random member; the
// clock runs from the request's arrival until a bufferer transmits the
// repair to the remote requester. A request landing directly on a bufferer
// scores zero (§4, footnote 5).
func RunSearch(cfg SearchConfig) (SearchResult, error) {
	if cfg.Bufferers < 1 || cfg.Bufferers > cfg.RegionSize {
		return SearchResult{}, fmt.Errorf("runner: bufferers %d out of range for region %d", cfg.Bufferers, cfg.RegionSize)
	}
	res := SearchResult{Config: cfg}
	var hist stats.Histogram
	var totalForwards int64
	for run := 0; run < cfg.Runs; run++ {
		ms, forwards, ok, err := searchRun(cfg, cfg.Seed+uint64(run)*104729)
		if err != nil {
			return SearchResult{}, err
		}
		if !ok {
			res.FailedRuns++
			continue
		}
		hist.Add(ms)
		totalForwards += forwards
	}
	res.SearchTimeMs = hist.Summarize()
	if succeeded := cfg.Runs - res.FailedRuns; succeeded > 0 {
		res.Forwards = float64(totalForwards) / float64(succeeded)
	}
	return res, nil
}

// searchRun executes a single search episode and returns the search time in
// milliseconds and the number of SEARCH transmissions.
func searchRun(cfg SearchConfig, seed uint64) (ms float64, forwards int64, ok bool, err error) {
	// Region 0 holds the idle message; region 1 holds the single remote
	// requester downstream of it.
	topo, err := topology.Chain(cfg.RegionSize, 1)
	if err != nil {
		return 0, 0, false, err
	}
	params := rrmp.DefaultParams()
	params.LongTermTTL = 0 // keep injected bufferers alive for the episode

	// The hook closure references the cluster to read the virtual clock;
	// hooks only fire once the simulation runs, after c is assigned.
	var c *Cluster
	var resolvedAt time.Duration = -1
	clusterCfg := ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Hooks: func(topology.NodeID) rrmp.Hooks {
			return rrmp.Hooks{
				OnSearchResolved: func(wire.MessageID, topology.NodeID) {
					if resolvedAt < 0 {
						resolvedAt = c.Engine.Now()
					}
				},
			}
		},
	}
	if cfg.Deterministic {
		clusterCfg.Policy = func(view topology.View, p rrmp.Params) core.Policy {
			if view.Region != 0 {
				return nil // default two-phase outside the region under test
			}
			region := append([]topology.NodeID{view.Self}, view.Peers()...)
			return core.NewHashElect(p.IdleThreshold, cfg.Bufferers, view.Self, region, 0)
		}
	}
	c, err = NewCluster(clusterCfg)
	if err != nil {
		return 0, 0, false, err
	}

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	bufferers := make(map[topology.NodeID]bool, cfg.Bufferers)
	if cfg.Deterministic {
		// The bufferer set is dictated by the hash (§3.4).
		ref := core.NewHashElect(params.IdleThreshold, cfg.Bufferers, region[0], region, 0)
		for _, b := range ref.Bufferers(id) {
			bufferers[b] = true
		}
	} else {
		perm := c.Root.Perm(len(region))
		for i := 0; i < cfg.Bufferers; i++ {
			bufferers[region[perm[i]]] = true
		}
	}
	for _, n := range region {
		if bufferers[n] {
			c.Members[n].InjectLongTerm(id, []byte("search"))
		} else {
			c.Members[n].InjectDiscarded(id)
		}
	}
	target := region[c.Root.Intn(len(region))]
	requester := topo.MemberAt(1, 0)
	c.Net.Unicast(requester, target, wire.Message{
		Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
	})
	arrival := InterOneWay // unicast sent at t=0, one inter-region hop
	c.Engine.RunUntil(30 * time.Second)

	if resolvedAt < 0 {
		return 0, 0, false, nil
	}
	for _, n := range region {
		forwards += c.Members[n].Metrics().SearchForwards.Value()
	}
	return float64(resolvedAt-arrival) / 1e6, forwards, true, nil
}

// Figure8 reproduces Figure 8: mean search time versus the number of
// bufferers (1..10) in a 100-member region, averaged over runs.
func Figure8(runs int, seed uint64) (Series, error) {
	s := Series{Name: fmt.Sprintf("search time, n=100, %d runs", runs)}
	for b := 1; b <= 10; b++ {
		res, err := RunSearch(SearchConfig{RegionSize: 100, Bufferers: b, Runs: runs, Seed: seed})
		if err != nil {
			return Series{}, err
		}
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, res.SearchTimeMs.Mean)
	}
	return s, nil
}

// Figure9 reproduces Figure 9: mean search time versus region size
// (100..1000) with 10 bufferers, averaged over runs.
func Figure9(runs int, seed uint64) (Series, error) {
	s := Series{Name: fmt.Sprintf("search time, B=10, %d runs", runs)}
	for n := 100; n <= 1000; n += 100 {
		res, err := RunSearch(SearchConfig{RegionSize: n, Bufferers: 10, Runs: runs, Seed: seed})
		if err != nil {
			return Series{}, err
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, res.SearchTimeMs.Mean)
	}
	return s, nil
}
