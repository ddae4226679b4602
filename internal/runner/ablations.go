package runner

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/stability"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ablationPolicies (A1) runs one workload — a 100-member region, 30
// messages at 20 ms spacing, 10% independent DATA loss — under the paper's
// two-phase policy and the baselines, and reports what each pays in buffer
// space for what reliability: the delivery ratio (distinct deliveries over
// members × messages), the message-seconds of buffer occupancy summed over
// members, the highest entry count any member held at once, and the mean
// store→evict time.
func ablationPolicies(seed uint64) (Table, error) {
	const (
		n       = 100
		msgs    = 30
		horizon = 5 * time.Second
	)
	type entry struct {
		name   string
		policy func(view topology.View, p rrmp.Params) core.Policy
	}
	policies := []entry{
		{"two-phase C=6", nil}, // nil: the member builds the paper's policy
		{"fixed-hold 200ms", func(topology.View, rrmp.Params) core.Policy {
			return &core.FixedHold{D: 200 * time.Millisecond}
		}},
		{"fixed-hold 1s", func(topology.View, rrmp.Params) core.Policy {
			return &core.FixedHold{D: time.Second}
		}},
		{"buffer-all", func(topology.View, rrmp.Params) core.Policy {
			return core.BufferAll{}
		}},
		{"hash-elect C=6", func(view topology.View, p rrmp.Params) core.Policy {
			region := append([]topology.NodeID{view.Self}, view.Peers()...)
			return core.NewHashElect(p.IdleThreshold, 6, view.Self, region, p.LongTermTTL)
		}},
	}

	t := Table{
		Labels: []Column{{Head: "policy", Width: -18}},
		Cols: []Column{{Head: "delivery", Width: 10, Verb: "%.2f%%"}, {Head: "buf(msg·s)", Width: 14, Verb: "%.1f"},
			{Head: "peak", Width: 8, Verb: "%.0f"}, {Head: "mean-buf(ms)", Width: 12, Verb: "%.1f"}},
	}
	for _, pe := range policies {
		topo, err := topology.SingleRegion(n)
		if err != nil {
			return Table{}, err
		}
		params := rrmp.DefaultParams()
		params.LongTermTTL = time.Second // bound long-term cost within the horizon
		c, err := NewCluster(ClusterConfig{
			Topo:   topo,
			Params: params,
			Seed:   seed,
			Policy: pe.policy,
			Loss: &netsim.BernoulliLoss{
				P:    0.10,
				Only: map[wire.Type]bool{wire.TypeData: true},
				Rng:  rng.New(seed ^ 0x105),
			},
		})
		if err != nil {
			return Table{}, err
		}
		c.Sender.StartSessions()
		for i := 0; i < msgs; i++ {
			i := i
			c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64)) })
		}
		c.Engine.RunUntil(horizon)

		var delivered int64
		var integral float64
		peak := 0
		var bufTime stats.Histogram
		for _, m := range c.Members {
			delivered += m.Metrics().Delivered.Value()
			integral += m.Buffer().OccupancyIntegral(c.Engine.Now())
			peak = max(peak, m.Buffer().PeakLen())
			for _, v := range m.Metrics().BufferingTime.Values() {
				bufTime.Add(v)
			}
		}
		t.add([]string{pe.name}, 100*(float64(delivered)/float64(n*msgs)), integral, float64(peak), bufTime.Mean())
	}
	return t, nil
}

// ablationLoadBalance (A2) contrasts RRMP's diffused buffering with the
// tree baseline, where a repair server carries its region's entire load
// (§1, §6): the same 100-message stream of 256-byte payloads on a flat
// 50-member region and on a two-level 25+25 hierarchy. The paper's
// repair-server claim is about a hierarchy of regions, so the flat cell
// alone would not exercise it. Costs are per-member payload
// byte-seconds; message-seconds would hide the cost of variable payloads
// entirely.
func ablationLoadBalance(seed uint64) (Table, error) {
	const (
		msgs    = 100
		horizon = 4 * time.Second
	)
	topos := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"flat-50", func() (*topology.Topology, error) { return topology.SingleRegion(50) }},
		{"two-level-25+25", func() (*topology.Topology, error) { return topology.Chain(25, 25) }},
	}
	payload := make([]byte, 256)

	t := Table{
		Labels: []Column{{Head: "protocol", Width: -20}, {Head: "topology", Width: -18}},
		Cols: []Column{{Head: "mean(B·s)", Width: 12, Verb: "%.0f"}, {Head: "max(B·s)", Width: 12, Verb: "%.0f"},
			{Head: "max/mean", Width: 10, Verb: "%.1f"}, {Head: "max-share", Width: 10, Verb: "%.0f%%"}},
		Note: "(max-share is the most-burdened member's share of its region's byte-time cost)",
	}
	for _, tc := range topos {
		// RRMP with the paper's two-phase policy.
		topo, err := tc.build()
		if err != nil {
			return Table{}, err
		}
		params := rrmp.DefaultParams()
		params.LongTermTTL = time.Second
		c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
		if err != nil {
			return Table{}, err
		}
		for i := 0; i < msgs; i++ {
			c.Engine.At(time.Duration(i)*10*time.Millisecond, func() { c.Sender.Publish(payload) })
		}
		c.Engine.RunUntil(horizon)
		integrals := make([]float64, topo.NumNodes())
		for id, m := range c.Members {
			integrals[id] = m.Buffer().ByteOccupancyIntegral(c.Engine.Now())
		}
		t.add([]string{"rrmp two-phase", tc.name}, loadBalance(topo, integrals)...)

		// Tree baseline on the identical workload and topology.
		tree, err := NewTreeCluster(TreeClusterConfig{Topo: topo, Seed: seed})
		if err != nil {
			return Table{}, err
		}
		for _, node := range tree.Nodes {
			node.StartAcks()
		}
		for i := 0; i < msgs; i++ {
			tree.Engine.At(time.Duration(i)*10*time.Millisecond, func() { tree.Sender.Publish(payload) })
		}
		tree.Engine.RunUntil(horizon)
		integrals = make([]float64, topo.NumNodes())
		for id, node := range tree.Nodes {
			if node.Buffer() != nil {
				integrals[id] = node.Buffer().ByteOccupancyIntegral(tree.Engine.Now())
			}
		}
		t.add([]string{"rmtp repair-server", tc.name}, loadBalance(topo, integrals)...)
	}
	return t, nil
}

// loadBalance reduces per-member byte-time integrals (indexed by dense
// NodeID) to A2's values: the mean and the maximum, their ratio (1.0 is
// perfectly even), and the most-burdened member's share (%) of its own
// region's total. The share is per region because the paper's §1 claim
// is: "a repair server bears the entire burden of buffering messages for
// a local region" (≈ 100%), while RRMP spreads it (≪ 100%). Scoping it to
// the region keeps the claim measurable on hierarchies, where each region
// has its own server.
func loadBalance(topo *topology.Topology, integrals []float64) []float64 {
	var sum, mean, maxInt, imbalance, maxShare float64
	regionSums := make([]float64, topo.NumRegions())
	for id, v := range integrals {
		sum += v
		maxInt = max(maxInt, v)
		regionSums[topo.RegionOf(topology.NodeID(id))] += v
	}
	if len(integrals) > 0 {
		mean = sum / float64(len(integrals))
	}
	if mean > 0 {
		imbalance = maxInt / mean
	}
	for id, v := range integrals {
		if rs := regionSums[topo.RegionOf(topology.NodeID(id))]; rs > 0 {
			maxShare = max(maxShare, v/rs)
		}
	}
	return []float64{mean, maxInt, imbalance, 100 * maxShare}
}

// ablationSearchImplosion (A3) reproduces §3.3's argument for the random
// walk: when a remote request arrives for a message that one member
// discarded but many members still buffer, a multicast query with back-off
// proportional to C triggers a storm of replies, while the random search
// transmits ~1 repair regardless of the holder count. Replies is the mean
// number of repair transmissions the remote requester's query generated
// (1.0 is ideal).
func ablationSearchImplosion(runs int, seed uint64) (Table, error) {
	t := Table{
		Labels: []Column{{Head: "mode", Width: -18}, {Head: "#holders", Width: 10}},
		Cols:   []Column{{Head: "replies", Width: 12, Verb: "%.1f"}},
	}
	for _, holders := range []int{10, 50, 90} {
		for _, mode := range []rrmp.SearchMode{rrmp.SearchRandomWalk, rrmp.SearchMulticastQuery} {
			total := 0.0
			for run := 0; run < runs; run++ {
				replies, err := implosionRun(mode, holders, seed+uint64(run)*31337)
				if err != nil {
					return Table{}, err
				}
				total += float64(replies)
			}
			name := "random-walk"
			if mode == rrmp.SearchMulticastQuery {
				name = "multicast-query"
			}
			t.add([]string{name, strconv.Itoa(holders)}, total/float64(runs))
		}
	}
	return t, nil
}

func implosionRun(mode rrmp.SearchMode, holders int, seed uint64) (int64, error) {
	const n = 100
	topo, err := topology.Chain(n, 1)
	if err != nil {
		return 0, err
	}
	params := rrmp.DefaultParams()
	params.SearchMode = mode
	params.LongTermTTL = 0
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
	if err != nil {
		return 0, err
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	perm := c.Root.Perm(len(region))
	holderSet := make(map[topology.NodeID]bool, holders)
	for i := 0; i < holders; i++ {
		holderSet[region[perm[i]]] = true
	}
	var target topology.NodeID = topology.NoNode
	for _, n := range region {
		if holderSet[n] {
			c.Members[n].InjectLongTerm(id, []byte("a3"))
		} else {
			c.Members[n].InjectDiscarded(id)
			if target == topology.NoNode {
				target = n
			}
		}
	}
	requester := topo.MemberAt(1, 0)
	c.Net.Unicast(requester, target, wire.Message{
		Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
	})
	c.Engine.RunUntil(10 * time.Second)
	// Count repairs that actually reached (or were sent toward) the
	// requester: received + in-flight-equivalents are both counted at the
	// senders to include implosion traffic the requester dedupes.
	var replies int64
	for _, node := range region {
		replies += c.Members[node].Metrics().RepairsSent.Value()
	}
	return replies, nil
}

// ablationChurn (A4) demonstrates §3.2's leave protocol: when every
// long-term bufferer departs gracefully, handoffs keep the message
// recoverable; when they all crash, a straggler's loss becomes permanent.
// Each row gives whether the straggler recovered (1 or 0), its recovery
// latency and the number of buffer transfers the departure triggered.
func ablationChurn(seed uint64) (Table, error) {
	t := Table{
		Labels: []Column{{Head: "mode", Width: -18}},
		Cols: []Column{{Head: "recovered", Width: 10, Verb: "%t"}, {Head: "recovery(ms)", Width: 14, Verb: "%.1f"},
			{Head: MKHandoffs, Width: 10, Verb: "%.0f"}},
	}
	for _, graceful := range []bool{true, false} {
		vals, err := churnRun(graceful, seed)
		if err != nil {
			return Table{}, err
		}
		t.add([]string{map[bool]string{true: "graceful-handoff", false: "crash"}[graceful]}, vals...)
	}
	return t, nil
}

func churnRun(graceful bool, seed uint64) ([]float64, error) {
	const n, bufferers = 50, 3
	topo, err := topology.SingleRegion(n)
	if err != nil {
		return nil, err
	}
	params := rrmp.DefaultParams()
	params.LongTermTTL = 0
	params.MaxLocalTries = 32
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
	if err != nil {
		return nil, err
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	straggler := region[n-1] // never received the message
	holderSet := map[topology.NodeID]bool{}
	perm := c.Root.Perm(n - 1) // exclude the straggler index
	for i := 0; i < bufferers; i++ {
		holderSet[region[perm[i]]] = true
	}
	for _, node := range region[:n-1] {
		if holderSet[node] {
			c.Members[node].InjectLongTerm(id, []byte("a4"))
		} else {
			c.Members[node].InjectDiscarded(id)
		}
	}

	// All bufferers depart at t = 0, in ascending node order: events at
	// the same instant run in insertion order, so iterating the holder
	// set directly would leak map order into the handoff sequence (the
	// PR 1 bug class; caught by the maporder analyzer).
	for _, node := range region[:n-1] {
		if !holderSet[node] {
			continue
		}
		node := node
		if graceful {
			c.Engine.At(0, func() { c.Members[node].Leave() })
		} else {
			c.Engine.At(0, func() { c.Net.SetDown(node, true) })
		}
	}
	// The straggler detects its loss shortly after.
	c.Engine.At(100*time.Millisecond, func() { c.Members[straggler].StartRecovery(id) })
	c.Engine.RunUntil(20 * time.Second)

	var recovered, recoveryMs float64
	if c.Members[straggler].HasReceived(id) {
		recovered = 1
		// Latency from the recovery histogram (single loss in this run).
		recoveryMs = c.Members[straggler].Metrics().RecoveryLatency.Mean()
	}
	var handoffs int64
	for node := range holderSet {
		handoffs += c.Members[node].Metrics().HandoffsSent.Value()
	}
	return []float64{recovered, recoveryMs, float64(handoffs)}, nil
}

// ablationLambda (A5) sweeps the remote-recovery aggressiveness λ (§2.2):
// larger λ repairs a region-wide loss faster but sends more duplicate
// remote requests. Each point gives the mean number of remote requests per
// region-wide loss (the duplicate-control metric; the paper designs for
// λ) and the mean time until the entire child region holds the message.
func ablationLambda(lambdas []float64, runs int, seed uint64) (Table, error) {
	t := Table{
		Labels: []Column{{Head: "lambda", Width: 8}},
		Cols:   []Column{{Head: "remote-reqs", Width: 14, Verb: "%.1f"}, {Head: "recovery(ms)", Width: 14, Verb: "%.1f"}},
	}
	for _, lambda := range lambdas {
		var reqSum, recSum float64
		for run := 0; run < runs; run++ {
			reqs, recMs, err := lambdaRun(lambda, seed+uint64(run)*7919)
			if err != nil {
				return Table{}, err
			}
			reqSum += reqs
			recSum += recMs
		}
		t.add([]string{fmt.Sprintf("%.1f", lambda)}, reqSum/float64(runs), recSum/float64(runs))
	}
	return t, nil
}

func lambdaRun(lambda float64, seed uint64) (reqs, recoveryMs float64, err error) {
	topo, err := topology.Chain(20, 50)
	if err != nil {
		return 0, 0, err
	}
	params := rrmp.DefaultParams()
	params.Lambda = lambda
	params.LongTermTTL = 0
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	var lastAt time.Duration
	delivered := 0
	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Hooks: func(n topology.NodeID) rrmp.Hooks {
			if topo.RegionOf(n) != 1 {
				return rrmp.Hooks{}
			}
			return rrmp.Hooks{
				OnDeliver: func(got wire.MessageID, at time.Duration) {
					if got == id {
						delivered++
						lastAt = at
					}
				},
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	// Parents hold pinned long-term copies: this experiment measures the
	// child region's remote-recovery behaviour, not parent-side buffer
	// management (whose rare zero-bufferer outcome is Figure 4's subject).
	for _, node := range topo.Members(0) {
		c.Members[node].InjectLongTerm(id, []byte("a5"))
	}
	for _, node := range topo.Members(1) {
		c.Members[node].StartRecovery(id)
	}
	c.Engine.RunUntil(30 * time.Second)
	if delivered != 50 {
		return 0, 0, fmt.Errorf("runner: lambda run delivered %d/50", delivered)
	}
	var rr int64
	for _, node := range topo.Members(1) {
		rr += c.Members[node].Metrics().RemoteReqSent.Value()
	}
	return float64(rr), float64(lastAt) / 1e6, nil
}

// ablationStabilityTraffic (A6) compares the paper's implicit feedback
// against an explicit stability-detection deployment (history digests every
// 100 ms, buffer-all until stable) on the same lossy workload. Digest bytes
// are the stability-detection history traffic (zero for RRMP: §3.1's
// scheme "does not introduce extra traffic"); control bytes are all
// non-DATA traffic (requests, repairs, sessions, digests).
func ablationStabilityTraffic(seed uint64) (Table, error) {
	const (
		n       = 50
		msgs    = 30
		horizon = 5 * time.Second
	)
	t := Table{
		Labels: []Column{{Head: "scheme", Width: -22}},
		Cols: []Column{{Head: "digest(B)", Width: 14, Verb: "%.0f"}, {Head: "control(B)", Width: 14, Verb: "%.0f"},
			{Head: "buf(msg·s)", Width: 14, Verb: "%.1f"}, {Head: "delivery", Width: 10, Verb: "%.2f%%"}},
	}
	for _, scheme := range []string{"rrmp two-phase", "stability-detection"} {
		topo, err := topology.SingleRegion(n)
		if err != nil {
			return Table{}, err
		}
		params := rrmp.DefaultParams()
		params.LongTermTTL = time.Second
		cfg := ClusterConfig{
			Topo:   topo,
			Params: params,
			Seed:   seed,
			Loss: &netsim.BernoulliLoss{
				P:    0.05,
				Only: map[wire.Type]bool{wire.TypeData: true},
				Rng:  rng.New(seed ^ 0x5afe),
			},
		}
		if scheme == "stability-detection" {
			cfg.Policy = func(topology.View, rrmp.Params) core.Policy { return core.BufferAll{} }
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return Table{}, err
		}

		var detectors []*stability.Detector
		if scheme == "stability-detection" {
			root := rng.New(seed ^ 0xd1685)
			for _, node := range c.All {
				node := node
				m := c.Members[node]
				view, err := topo.ViewOf(node)
				if err != nil {
					return Table{}, err
				}
				det := stability.New(stability.Config{
					View:        view,
					Source:      topo.Sender(),
					Sched:       c.Engine,
					Rng:         root.Split(memberStreamBase + uint64(node)),
					Send:        func(to topology.NodeID, msg wire.Message) { c.Net.Unicast(node, to, msg) },
					LocalPrefix: func() uint64 { return m.Prefix(topo.Sender()) },
					OnStable: func(seq uint64) {
						m.Buffer().Remove(wire.MessageID{Source: topo.Sender(), Seq: seq}, core.EvictStable)
					},
				})
				detectors = append(detectors, det)
				// Route HISTORY PDUs to the detector, everything else to
				// the member.
				c.Net.Register(node, func(p netsim.Packet) {
					if p.Msg.Type == wire.TypeHistory {
						det.Receive(p.Msg)
						return
					}
					m.Receive(p.From, p.Msg)
				})
				det.Start()
			}
		}

		c.Sender.StartSessions()
		for i := 0; i < msgs; i++ {
			i := i
			c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64)) })
		}
		c.Engine.RunUntil(horizon)
		for _, det := range detectors {
			det.Stop()
		}

		digest := c.Net.Stats().BytesSent(wire.TypeHistory)
		control := c.Net.Stats().TotalBytes() - c.Net.Stats().BytesSent(wire.TypeData)
		var delivered int64
		var integral float64
		for _, m := range c.Members {
			delivered += m.Metrics().Delivered.Value()
			integral += m.Buffer().OccupancyIntegral(c.Engine.Now())
		}
		t.add([]string{scheme}, float64(digest), float64(control), integral, 100*(float64(delivered)/float64(n*msgs)))
	}
	return t, nil
}
