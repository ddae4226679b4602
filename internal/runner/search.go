package runner

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/rrmp"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// searchTime measures the mean search time in milliseconds over runs
// episodes, in a region of n members where bufferers members hold the
// idle message (§3.3, §4), and counts the episodes that did not resolve
// (none should whenever bufferers >= 1). Each episode sends a remote
// request for a message that has become idle region-wide to a uniformly
// random member; the clock runs from the request's arrival until a
// bufferer transmits the repair to the remote requester. A request
// landing directly on a bufferer scores zero (§4, footnote 5).
func searchTime(n, bufferers, runs int, seed uint64) (meanMs float64, failed int, err error) {
	if bufferers < 1 || bufferers > n {
		return 0, 0, fmt.Errorf("runner: bufferers %d out of range for region %d", bufferers, n)
	}
	var hist stats.Histogram
	for run := 0; run < runs; run++ {
		ms, ok, err := searchRun(n, bufferers, seed+uint64(run)*104729)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			failed++
			continue
		}
		hist.Add(ms)
	}
	return hist.Mean(), failed, nil
}

// searchRun executes a single search episode and returns the search time in
// milliseconds.
func searchRun(n, bufferers int, seed uint64) (ms float64, ok bool, err error) {
	// Region 0 holds the idle message; region 1 holds the single remote
	// requester downstream of it.
	topo, err := topology.Chain(n, 1)
	if err != nil {
		return 0, false, err
	}
	params := rrmp.DefaultParams()
	params.LongTermTTL = 0 // keep injected bufferers alive for the episode

	// The hook closure references the cluster to read the virtual clock;
	// hooks only fire once the simulation runs, after c is assigned.
	var c *Cluster
	var resolvedAt time.Duration = -1
	c, err = NewCluster(ClusterConfig{
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
	})
	if err != nil {
		return 0, false, err
	}

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	c.injectHolders(region, bufferers, id, []byte("search"))
	target := region[c.Root.Intn(len(region))]
	requester := topo.MemberAt(1, 0)
	c.Net.Unicast(requester, target, wire.Message{
		Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
	})
	arrival := InterOneWay // unicast sent at t=0, one inter-region hop
	c.Engine.RunUntil(30 * time.Second)

	if resolvedAt < 0 {
		return 0, false, nil
	}
	return float64(resolvedAt-arrival) / 1e6, true, nil
}

// injectHolders sets up a message that has gone idle across members: k of
// them, picked uniformly by one c.Root.Perm draw, hold a long-term copy of
// id with the given payload, and the rest received and discarded it. It
// returns the holders.
func (c *Cluster) injectHolders(members []topology.NodeID, k int, id wire.MessageID, payload []byte) map[topology.NodeID]bool {
	holders := make(map[topology.NodeID]bool, k)
	perm := c.Root.Perm(len(members))
	for _, i := range perm[:k] {
		holders[members[i]] = true
	}
	for _, m := range members {
		if holders[m] {
			c.Members[m].InjectLongTerm(id, payload)
		} else {
			c.Members[m].InjectDiscarded(id)
		}
	}
	return holders
}

// figure8 reproduces Figure 8: mean search time versus the number of
// bufferers (1..10) in a 100-member region, averaged over runs.
func figure8(runs int, seed uint64) (Table, error) {
	t := seriesTable("#bufferers", fmt.Sprintf("search time, n=100, %d runs", runs))
	for b := 1; b <= 10; b++ {
		ms, _, err := searchTime(100, b, runs, seed)
		if err != nil {
			return Table{}, err
		}
		t.add([]string{strconv.Itoa(b)}, ms)
	}
	return t, nil
}

// figure9 reproduces Figure 9: mean search time versus region size
// (100..1000) with 10 bufferers, averaged over runs.
func figure9(runs int, seed uint64) (Table, error) {
	t := seriesTable("region", fmt.Sprintf("search time, B=10, %d runs", runs))
	for n := 100; n <= 1000; n += 100 {
		ms, _, err := searchTime(n, 10, runs, seed)
		if err != nil {
			return Table{}, err
		}
		t.add([]string{strconv.Itoa(n)}, ms)
	}
	return t, nil
}
