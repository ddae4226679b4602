package runner

import (
	"fmt"
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

// PolicyComparison is one row of ablation A1: the same lossy workload run
// under a different buffering policy.
type PolicyComparison struct {
	Policy string
	// DeliveryRatio is distinct deliveries / (members × messages).
	DeliveryRatio float64
	// BufferIntegral is the total message-seconds of buffer occupancy
	// summed over all members (the buffering cost a policy pays).
	BufferIntegral float64
	// PeakPerMember is the highest instantaneous entry count at any member.
	PeakPerMember int
	// MeanBufferingMs is the mean store→evict time.
	MeanBufferingMs float64
}

// AblationPolicies (A1) runs one workload — a 100-member region, 30
// messages at 20 ms spacing, 10% independent DATA loss — under the paper's
// two-phase policy and the baselines, and reports what each pays in buffer
// space for what reliability.
func AblationPolicies(seed uint64) ([]PolicyComparison, error) {
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

	out := make([]PolicyComparison, 0, len(policies))
	for _, pe := range policies {
		topo, err := topology.SingleRegion(n)
		if err != nil {
			return nil, err
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
			return nil, err
		}
		c.Sender.StartSessions()
		for i := 0; i < msgs; i++ {
			i := i
			c.Engine.At(time.Duration(i)*20*time.Millisecond, func() { c.Sender.Publish(make([]byte, 64)) })
		}
		c.Engine.RunUntil(horizon)

		row := PolicyComparison{Policy: pe.name}
		var delivered int64
		var bufTime stats.Histogram
		for _, m := range c.Members {
			delivered += m.Metrics().Delivered.Value()
			row.BufferIntegral += m.Buffer().OccupancyIntegral(c.Engine.Now())
			if p := m.Buffer().PeakLen(); p > row.PeakPerMember {
				row.PeakPerMember = p
			}
			for _, v := range m.Metrics().BufferingTime.Values() {
				bufTime.Add(v)
			}
		}
		row.DeliveryRatio = float64(delivered) / float64(n*msgs)
		row.MeanBufferingMs = bufTime.Mean()
		out = append(out, row)
	}
	return out, nil
}

// LoadBalance is one row of ablation A2: how evenly the buffering burden is
// spread across members.
type LoadBalance struct {
	Protocol string
	// Topology names the group shape the row ran on ("flat-50" or
	// "two-level-25+25"): the paper's repair-server claim is about a
	// hierarchy of regions, so the flat single-region cell alone would
	// not exercise it.
	Topology string
	// MeanIntegral and MaxIntegral are per-member payload-byte-seconds —
	// the byte-time integral PR 4 made live; message-seconds hid the cost
	// of variable payloads entirely.
	MeanIntegral float64
	MaxIntegral  float64
	// Imbalance is MaxIntegral / MeanIntegral (1.0 = perfectly even).
	Imbalance float64
	// MaxShare is the most-burdened member's fraction of its *region's*
	// total buffering cost — the paper's §1 claim is per region: "a
	// repair server bears the entire burden of buffering messages for a
	// local region" (≈ 1.0), while RRMP spreads it (≪ 1.0). Scoping the
	// share to the region keeps the claim measurable on hierarchies,
	// where each region has its own server.
	MaxShare float64
}

// AblationLoadBalance (A2) contrasts RRMP's diffused buffering with the
// tree baseline, where a repair server carries its region's entire load
// (§1, §6): the same 100-message stream on a flat 50-member region and on
// a two-level 25+25 hierarchy, with the historic fixed 256-byte payload.
func AblationLoadBalance(seed uint64) ([]LoadBalance, error) {
	return ablationLoadBalanceSized(0, "", seed)
}

// ablationLoadBalanceSized is AblationLoadBalance under a payload-size
// model: payloadBytes is the per-message mean (0 = the historic 256) and
// model selects fixed/uniform/lognormal draws (workload.NewSizeModel), so
// the byte-time comparison covers variable payloads, not just a constant
// multiple of the message count.
func ablationLoadBalanceSized(payloadBytes int, model string, seed uint64) ([]LoadBalance, error) {
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
	sizes, maxSize, err := payloadSizesFor(model, payloadBytes, msgs, seed)
	if err != nil {
		return nil, err
	}
	payloadBuf := make([]byte, maxSize)

	var out []LoadBalance
	for _, tc := range topos {
		// RRMP with the paper's two-phase policy.
		topo, err := tc.build()
		if err != nil {
			return nil, err
		}
		params := rrmp.DefaultParams()
		params.LongTermTTL = time.Second
		c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
		if err != nil {
			return nil, err
		}
		for i := 0; i < msgs; i++ {
			i := i
			c.Engine.At(time.Duration(i)*10*time.Millisecond, func() { c.Sender.Publish(payloadBuf[:sizes[i]]) })
		}
		c.Engine.RunUntil(horizon)
		integrals := make([]float64, topo.NumNodes())
		for id, m := range c.Members {
			integrals[id] = m.Buffer().ByteOccupancyIntegral(c.Engine.Now())
		}
		out = append(out, loadBalanceRow("rrmp two-phase", tc.name, topo, integrals))

		// Tree baseline on the identical workload and topology.
		tree, err := NewTreeCluster(TreeClusterConfig{Topo: topo, Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, node := range tree.Nodes {
			node.StartAcks()
		}
		for i := 0; i < msgs; i++ {
			i := i
			tree.Engine.At(time.Duration(i)*10*time.Millisecond, func() { tree.Sender.Publish(payloadBuf[:sizes[i]]) })
		}
		tree.Engine.RunUntil(horizon)
		integrals = make([]float64, topo.NumNodes())
		for id, node := range tree.Nodes {
			if node.Buffer() != nil {
				integrals[id] = node.Buffer().ByteOccupancyIntegral(tree.Engine.Now())
			}
		}
		out = append(out, loadBalanceRow("rmtp repair-server", tc.name, topo, integrals))
	}
	return out, nil
}

// loadBalanceRow reduces per-member byte-time integrals (indexed by dense
// NodeID) to the A2 row: global mean/max/imbalance, and the worst member's
// share of its own region's total.
func loadBalanceRow(name, topoName string, topo *topology.Topology, integrals []float64) LoadBalance {
	row := LoadBalance{Protocol: name, Topology: topoName}
	var sum float64
	regionSums := make([]float64, topo.NumRegions())
	for id, v := range integrals {
		sum += v
		if v > row.MaxIntegral {
			row.MaxIntegral = v
		}
		regionSums[topo.RegionOf(topology.NodeID(id))] += v
	}
	if len(integrals) > 0 {
		row.MeanIntegral = sum / float64(len(integrals))
	}
	if row.MeanIntegral > 0 {
		row.Imbalance = row.MaxIntegral / row.MeanIntegral
	}
	for id, v := range integrals {
		if rs := regionSums[topo.RegionOf(topology.NodeID(id))]; rs > 0 {
			if share := v / rs; share > row.MaxShare {
				row.MaxShare = share
			}
		}
	}
	return row
}

// SearchImplosion is one row of ablation A3.
type SearchImplosion struct {
	Mode    string
	Holders int
	// RepliesPerEpisode is the mean number of repair transmissions the
	// remote requester's query generated (1.0 is ideal).
	RepliesPerEpisode float64
}

// AblationSearchImplosion (A3) reproduces §3.3's argument for the random
// walk: when a remote request arrives for a message that one member
// discarded but many members still buffer, a multicast query with back-off
// proportional to C triggers a storm of replies, while the random search
// transmits ~1 repair regardless of the holder count.
func AblationSearchImplosion(runs int, seed uint64) ([]SearchImplosion, error) {
	var out []SearchImplosion
	for _, holders := range []int{10, 50, 90} {
		for _, mode := range []rrmp.SearchMode{rrmp.SearchRandomWalk, rrmp.SearchMulticastQuery} {
			total := 0.0
			for run := 0; run < runs; run++ {
				replies, err := implosionRun(mode, holders, seed+uint64(run)*31337)
				if err != nil {
					return nil, err
				}
				total += float64(replies)
			}
			name := "random-walk"
			if mode == rrmp.SearchMulticastQuery {
				name = "multicast-query"
			}
			out = append(out, SearchImplosion{
				Mode:              name,
				Holders:           holders,
				RepliesPerEpisode: total / float64(runs),
			})
		}
	}
	return out, nil
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

// ChurnResult is one row of ablation A4.
type ChurnResult struct {
	Mode       string
	Recovered  bool
	RecoveryMs float64
	// Handoffs is the number of buffer transfers the departure triggered.
	Handoffs int64
}

// AblationChurn (A4) demonstrates §3.2's leave protocol: when every
// long-term bufferer departs gracefully, handoffs keep the message
// recoverable; when they all crash, a straggler's loss becomes permanent.
func AblationChurn(seed uint64) ([]ChurnResult, error) {
	var out []ChurnResult
	for _, graceful := range []bool{true, false} {
		res, err := churnRun(graceful, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func churnRun(graceful bool, seed uint64) (ChurnResult, error) {
	const n, bufferers = 50, 3
	topo, err := topology.SingleRegion(n)
	if err != nil {
		return ChurnResult{}, err
	}
	params := rrmp.DefaultParams()
	params.LongTermTTL = 0
	params.MaxLocalTries = 32
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
	if err != nil {
		return ChurnResult{}, err
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

	res := ChurnResult{Mode: map[bool]string{true: "graceful-handoff", false: "crash"}[graceful]}
	if c.Members[straggler].HasReceived(id) {
		res.Recovered = true
		// Latency from the recovery histogram (single loss in this run).
		res.RecoveryMs = c.Members[straggler].Metrics().RecoveryLatency.Mean()
	}
	for node := range holderSet {
		res.Handoffs += c.Members[node].Metrics().HandoffsSent.Value()
	}
	return res, nil
}

// LambdaPoint is one row of ablation A5.
type LambdaPoint struct {
	Lambda float64
	// RemoteRequests is the mean number of remote requests per region-wide
	// loss (the duplicate-control metric; the paper designs for λ).
	RemoteRequests float64
	// RecoveryMs is the mean time until the entire child region holds the
	// message.
	RecoveryMs float64
}

// AblationLambda (A5) sweeps the remote-recovery aggressiveness λ (§2.2):
// larger λ repairs a region-wide loss faster but sends more duplicate
// remote requests.
func AblationLambda(lambdas []float64, runs int, seed uint64) ([]LambdaPoint, error) {
	out := make([]LambdaPoint, 0, len(lambdas))
	for _, lambda := range lambdas {
		var reqSum, recSum float64
		for run := 0; run < runs; run++ {
			reqs, recMs, err := lambdaRun(lambda, seed+uint64(run)*7919)
			if err != nil {
				return nil, err
			}
			reqSum += reqs
			recSum += recMs
		}
		out = append(out, LambdaPoint{
			Lambda:         lambda,
			RemoteRequests: reqSum / float64(runs),
			RecoveryMs:     recSum / float64(runs),
		})
	}
	return out, nil
}

func lambdaRun(lambda float64, seed uint64) (reqs, recoveryMs float64, err error) {
	topo, err := topology.Chain(20, 50)
	if err != nil {
		return 0, 0, err
	}
	params := rrmp.DefaultParams()
	params.Lambda = lambda
	params.LongTermTTL = 0
	c, err := NewCluster(ClusterConfig{Topo: topo, Params: params, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	// Parents hold pinned long-term copies: this experiment measures the
	// child region's remote-recovery behaviour, not parent-side buffer
	// management (whose rare zero-bufferer outcome is Figure 4's subject).
	for _, node := range topo.Members(0) {
		c.Members[node].InjectLongTerm(id, []byte("a5"))
	}
	var lastAt time.Duration
	delivered := 0
	for _, node := range topo.Members(1) {
		node := node
		c.Members[node].SetDeliverHook(func(got wire.MessageID, at time.Duration) {
			if got == id {
				delivered++
				lastAt = at
			}
		})
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

// OverheadResult is one row of ablation A6.
type OverheadResult struct {
	Scheme string
	// DigestBytes is the stability-detection history traffic (zero for
	// RRMP: §3.1's scheme "does not introduce extra traffic").
	DigestBytes int64
	// ControlBytes is all non-DATA traffic (requests, repairs, sessions,
	// digests).
	ControlBytes int64
	// BufferIntegral is total message-seconds across members.
	BufferIntegral float64
	// DeliveryRatio is distinct deliveries / (members × messages).
	DeliveryRatio float64
}

// AblationStabilityTraffic (A6) compares the paper's implicit feedback
// against an explicit stability-detection deployment (history digests every
// 100 ms, buffer-all until stable) on the same lossy workload.
func AblationStabilityTraffic(seed uint64) ([]OverheadResult, error) {
	const (
		n       = 50
		msgs    = 30
		horizon = 5 * time.Second
	)
	var out []OverheadResult

	for _, scheme := range []string{"rrmp two-phase", "stability-detection"} {
		topo, err := topology.SingleRegion(n)
		if err != nil {
			return nil, err
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
			return nil, err
		}

		var detectors []*stability.Detector
		if scheme == "stability-detection" {
			root := rng.New(seed ^ 0xd1685)
			for _, node := range c.All {
				node := node
				m := c.Members[node]
				view, err := topo.ViewOf(node)
				if err != nil {
					return nil, err
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

		row := OverheadResult{Scheme: scheme}
		row.DigestBytes = c.Net.Stats().BytesSent(wire.TypeHistory)
		row.ControlBytes = c.Net.Stats().TotalBytes() - c.Net.Stats().BytesSent(wire.TypeData)
		var delivered int64
		for _, m := range c.Members {
			delivered += m.Metrics().Delivered.Value()
			row.BufferIntegral += m.Buffer().OccupancyIntegral(c.Engine.Now())
		}
		row.DeliveryRatio = float64(delivered) / float64(n*msgs)
		out = append(out, row)
	}
	return out, nil
}
