package rrmp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestLosslessDeliveryNoRecoveryTraffic(t *testing.T) {
	topo := singleRegion(t, 10)
	c := newCluster(t, topo, DefaultParams(), 1, nil)
	for i := 0; i < 5; i++ {
		c.sender.Publish([]byte{byte(i)})
	}
	c.sim.RunUntil(2 * time.Second)
	for seq := uint64(1); seq <= 5; seq++ {
		id := wire.MessageID{Source: topo.Sender(), Seq: seq}
		if got := c.deliveredCount(id); got != 10 {
			t.Fatalf("seq %d delivered to %d/10", seq, got)
		}
	}
	for n, m := range c.members {
		if m.Metrics().LocalReqSent.Value() != 0 {
			t.Fatalf("member %d sent recovery requests on a lossless network", n)
		}
	}
}

func TestLocalRecoveryUnderLoss(t *testing.T) {
	topo := singleRegion(t, 30)
	loss := &netsim.BernoulliLoss{
		P:    0.4,
		Only: map[wire.Type]bool{wire.TypeData: true},
		Rng:  rng.New(99),
	}
	params := DefaultParams()
	// C = n guarantees a long-term bufferer per message, making delivery
	// certain; the probabilistic C<n regime is covered by
	// TestUnrecoverableLossGivesUp and the Figure 4 analysis.
	params.C = 30
	c := newCluster(t, topo, params, 2, loss)
	c.sender.StartSessions()
	const msgs = 10
	for i := 0; i < msgs; i++ {
		i := i
		c.sim.At(time.Duration(i)*20*time.Millisecond, func() { c.sender.Publish([]byte{byte(i)}) })
	}
	c.sim.RunUntil(3 * time.Second)
	for seq := uint64(1); seq <= msgs; seq++ {
		id := wire.MessageID{Source: topo.Sender(), Seq: seq}
		if got := c.deliveredCount(id); got != 30 {
			t.Fatalf("seq %d delivered to %d/30 under 40%% data loss", seq, got)
		}
	}
	// Recovery must actually have happened (loss was real).
	var reqs int64
	for _, m := range c.members {
		reqs += m.Metrics().LocalReqSent.Value()
	}
	if reqs == 0 {
		t.Fatal("no local recovery traffic despite loss")
	}
}

func TestRegionalLossRemoteRecovery(t *testing.T) {
	topo := chainRegions(t, 5, 5)
	victims := make(map[topology.NodeID]bool)
	for _, n := range topo.Members(1) {
		victims[n] = true
	}
	c := newCluster(t, topo, DefaultParams(), 3, &regionLoss{victims: victims})
	c.sender.StartSessions()
	id := c.sender.Publish([]byte("regional"))
	c.sim.RunUntil(3 * time.Second)

	if got := c.deliveredCount(id); got != 10 {
		t.Fatalf("delivered to %d/10 after regional loss", got)
	}
	var remoteReqs, regionalMCs int64
	for _, n := range topo.Members(1) {
		remoteReqs += c.members[n].Metrics().RemoteReqSent.Value()
		regionalMCs += c.members[n].Metrics().RegionalMulticasts.Value()
	}
	if remoteReqs == 0 {
		t.Fatal("regional loss repaired without remote requests")
	}
	if regionalMCs == 0 {
		t.Fatal("remote repair was not multicast into the losing region")
	}
}

func TestSessionDetectsTailLoss(t *testing.T) {
	topo := singleRegion(t, 5)
	victim := topo.MemberAt(0, 3)
	c := newCluster(t, topo, DefaultParams(), 4, &regionLoss{victims: map[topology.NodeID]bool{victim: true}})
	c.sender.StartSessions()
	id := c.sender.Publish([]byte("tail")) // the only message: no later data to expose the gap
	c.sim.RunUntil(2 * time.Second)
	if !c.members[victim].HasReceived(id) {
		t.Fatal("tail loss not recovered via session messages")
	}
	if c.members[victim].Metrics().RecoveryLatency.N() != 1 {
		t.Fatal("recovery latency not recorded")
	}
}

func TestFeedbackKeepsHoldersBuffering(t *testing.T) {
	// One holder, everyone else missing: the holder must keep the message
	// well past T because requests keep arriving, and must discard it only
	// after the region is repaired and goes quiet.
	topo := singleRegion(t, 20)
	params := DefaultParams()
	params.C = 0 // isolate short-term behaviour
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	// The holder's hooks observe its buffer; the clock is read only once
	// the cluster runs.
	var c *cluster
	var evictedAt time.Duration
	c = buildCluster(t, topo, params, 5, nil, nil, func(n topology.NodeID) Hooks {
		if n != topo.MemberAt(0, 0) {
			return Hooks{}
		}
		return Hooks{OnEvict: func(e *core.Entry, r core.EvictReason) {
			if e.ID == id {
				evictedAt = c.sim.Now()
			}
		}}
	}, false)

	holder := c.members[topo.MemberAt(0, 0)]
	holder.InjectDeliver(id, []byte("x"))
	for _, n := range topo.Members(0)[1:] {
		c.members[n].StartRecovery(id)
	}
	c.sim.RunUntil(5 * time.Second)

	if got := c.deliveredCount(id); got != 20 {
		t.Fatalf("delivered %d/20", got)
	}
	bt := holder.Buffer().BufferingTime()
	if bt.N() != 1 {
		t.Fatalf("holder recorded %d buffering times", bt.N())
	}
	// Must exceed T (40 ms) because feedback kept it alive, and be well
	// below the 5 s horizon once the region went quiet.
	if bt.Mean() <= 40 || bt.Mean() > 500 {
		t.Fatalf("holder buffering time %.1f ms, want (40, 500]", bt.Mean())
	}
	// The message was stored at 0, so it left at its buffering time.
	if want := time.Duration(bt.Mean() * float64(time.Millisecond)); (evictedAt - want).Abs() > time.Microsecond {
		t.Fatalf("the OnEvict hook saw the eviction at %v, want %v", evictedAt, want)
	}
}

func TestWaiterRelay(t *testing.T) {
	// A remote request arrives at a parent member that never received the
	// message; when the parent recovers it, the waiter gets a relay (§2.2).
	topo := chainRegions(t, 3, 3)
	c := newCluster(t, topo, DefaultParams(), 6, nil)

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	parentHolder := c.members[topo.MemberAt(0, 1)]
	parentWaitee := topo.MemberAt(0, 2) // never received, will be asked
	downstream := topo.MemberAt(1, 0)

	parentHolder.InjectDeliver(id, []byte("w"))
	// Downstream member sends a remote request directly to the chosen
	// parent member.
	c.net.Unicast(downstream, parentWaitee, wire.Message{
		Type: wire.TypeRemoteRequest, From: downstream, ID: id, Origin: downstream,
	})
	// Later the parent member recovers the message via local recovery. The
	// request arrives one inter-region hop (50 ms) after it is sent; the
	// recovery needs at least one intra-region round trip (10 ms), so at
	// 55 ms the waiter is recorded and not yet relayed.
	c.sim.At(50*time.Millisecond, func() { c.members[parentWaitee].StartRecovery(id) })
	c.sim.At(55*time.Millisecond, func() {
		var waiters []topology.NodeID
		if ms := c.members[parentWaitee].record(id); ms != nil {
			waiters = ms.waiters
		}
		if !slices.Equal(waiters, []topology.NodeID{downstream}) {
			t.Errorf("parent recorded waiters %v, want [%d]", waiters, downstream)
		}
	})
	c.sim.RunUntil(2 * time.Second)

	if !c.members[downstream].HasReceived(id) {
		t.Fatal("waiter never received the relayed repair")
	}
	// The relay is the only repair the parent sends.
	if got := c.tally.sent[nodeType{parentWaitee, wire.TypeRepair}]; got != 1 {
		t.Fatalf("parent sent %d repairs, want the 1 relay", got)
	}
}

// TestRemoteRequestStartsRecovery: a remote request for a sequence the
// member never saw proves the message exists, so the member starts
// recovering it at once. A zero Params must behave exactly as
// DefaultParams here: no setting may turn this off.
func TestRemoteRequestStartsRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Params
	}{{"DefaultParams", DefaultParams()}, {"Params{}", Params{}}} {
		topo := chainRegions(t, 3, 3)
		c := newCluster(t, topo, tc.params, 6, nil)
		id := wire.MessageID{Source: topo.Sender(), Seq: 1}
		asked := c.members[topo.MemberAt(0, 2)]
		downstream := topo.MemberAt(1, 0)
		asked.Receive(downstream, wire.Message{
			Type: wire.TypeRemoteRequest, From: downstream, ID: id, Origin: downstream,
		})
		if !recovering(asked, id) {
			t.Errorf("%s: member asked for unseen %v is not recovering it", tc.name, id)
		}
	}
}

func TestSearchFindsBufferer(t *testing.T) {
	// Region where the message has gone idle everywhere except B long-term
	// bufferers; a remote request lands on a non-bufferer and must locate a
	// copy via the randomized search (§3.3).
	topo := chainRegions(t, 40, 1)
	c := newCluster(t, topo, DefaultParams(), 7, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}

	region := topo.Members(0)
	bufferers := map[topology.NodeID]bool{region[5]: true, region[17]: true, region[23]: true}
	for _, n := range region {
		if bufferers[n] {
			c.members[n].InjectLongTerm(id, []byte("s"))
		} else {
			c.members[n].InjectDiscarded(id)
		}
	}
	downstream := topo.MemberAt(1, 0)
	target := region[0] // not a bufferer: must search

	resolved := false
	var resolvedAt time.Duration
	for _, n := range region {
		m := c.members[n]
		m.coldState().hooks.OnSearchResolved = func(gotID wire.MessageID, origin topology.NodeID) {
			if gotID == id && origin == downstream && !resolved {
				resolved = true
				resolvedAt = c.sim.Now()
			}
		}
	}
	c.net.Unicast(downstream, target, wire.Message{
		Type: wire.TypeRemoteRequest, From: downstream, ID: id, Origin: downstream,
	})
	c.sim.RunUntil(3 * time.Second)

	if !resolved {
		t.Fatal("search never resolved")
	}
	if !c.members[downstream].HasReceived(id) {
		t.Fatal("remote requester never received the repair")
	}
	if resolvedAt > 500*time.Millisecond {
		t.Fatalf("search took %v, far beyond plausible bounds", resolvedAt)
	}
	// The searchers must have produced HAVE traffic to terminate.
	if sum(c.tally.sent, wire.TypeHave, region...) == 0 {
		t.Fatal("no HAVE notice terminated the search")
	}
}

func TestSearchTimeZeroWhenRequestHitsBufferer(t *testing.T) {
	topo := chainRegions(t, 10, 1)
	c := newCluster(t, topo, DefaultParams(), 8, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	region := topo.Members(0)
	bufferer := region[4]
	for _, n := range region {
		if n == bufferer {
			c.members[n].InjectLongTerm(id, []byte("z"))
		} else {
			c.members[n].InjectDiscarded(id)
		}
	}
	downstream := topo.MemberAt(1, 0)
	var resolvedAt time.Duration = -1
	var reqArrive time.Duration
	c.members[bufferer].coldState().hooks.OnSearchResolved = func(wire.MessageID, topology.NodeID) {
		resolvedAt = c.sim.Now()
	}
	c.sim.After(0, func() { reqArrive = c.sim.Now() })
	c.net.Unicast(downstream, bufferer, wire.Message{
		Type: wire.TypeRemoteRequest, From: downstream, ID: id, Origin: downstream,
	})
	c.sim.RunUntil(time.Second)
	if resolvedAt < 0 {
		t.Fatal("request at bufferer not served")
	}
	// Served immediately on arrival (one inter-region hop after send).
	arrival := reqArrive + 50*time.Millisecond
	if resolvedAt != arrival {
		t.Fatalf("resolved at %v, want %v (zero search time)", resolvedAt, arrival)
	}
	if c.tally.sent[nodeType{bufferer, wire.TypeSearch}] != 0 {
		t.Fatal("bufferer forwarded a search despite holding the message")
	}
}

func TestLeaveHandsOffLongTermBuffers(t *testing.T) {
	topo := singleRegion(t, 10)
	c := newCluster(t, topo, DefaultParams(), 9, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	leaver := c.members[topo.MemberAt(0, 2)]
	leaver.InjectLongTerm(id, []byte("h"))
	for _, n := range topo.Members(0) {
		if n != leaver.self() {
			c.members[n].InjectDiscarded(id)
		}
	}
	leaver.Leave()
	c.sim.RunUntil(time.Second)

	holders := 0
	for _, m := range c.members {
		if m.Buffer().Has(id) {
			if e, _ := m.Buffer().Get(id); e.State() != core.StateLongTerm {
				t.Fatal("handoff copy is not long-term")
			}
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d members hold the message after handoff, want exactly 1", holders)
	}
	if leaver.coldState().faults.HandoffsSent.Value() != 1 {
		t.Fatalf("HandoffsSent = %d", leaver.coldState().faults.HandoffsSent.Value())
	}
	if !leaver.Left() {
		t.Fatal("Left() = false after Leave")
	}
}

func TestLeftMemberIgnoresTraffic(t *testing.T) {
	topo := singleRegion(t, 5)
	c := newCluster(t, topo, DefaultParams(), 10, nil)
	m := c.members[topo.MemberAt(0, 1)]
	m.Leave()
	id := c.sender.Publish([]byte("after-leave"))
	c.sim.RunUntil(time.Second)
	if m.HasReceived(id) {
		t.Fatal("left member processed a delivery")
	}
}

func TestBackoffSuppressesDuplicateRegionalMulticasts(t *testing.T) {
	// Two members of the same region receive remote repairs for the same
	// message at the same instant. With a back-off window, only one should
	// normally multicast; the other suppresses (§2.2, [14]).
	topo := chainRegions(t, 2, 8)
	params := DefaultParams()
	params.RepairBackoffMax = 30 * time.Millisecond
	c := newCluster(t, topo, params, 11, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}

	receivers := []topology.NodeID{topo.MemberAt(1, 0), topo.MemberAt(1, 1)}
	parent := topo.MemberAt(0, 0)
	payload := []byte("dup")
	for _, r := range receivers {
		c.net.Unicast(parent, r, wire.Message{Type: wire.TypeRepair, From: parent, ID: id, Payload: payload})
	}
	// pending reports whether r's regional multicast waits out its back-off.
	pending := func(r topology.NodeID) bool {
		ms := c.members[r].record(id)
		return ms != nil && ms.mc != nil
	}
	// The repairs arrive at 50 ms, one inter-region hop; every back-off
	// is at least 1 ns, so each receiver's multicast is pending now.
	c.sim.RunUntil(50 * time.Millisecond)
	for _, r := range receivers {
		if !pending(r) {
			t.Fatalf("member %d scheduled no regional multicast of the remote repair", r)
		}
	}
	c.sim.RunUntil(time.Second)

	// A pending multicast that never went out and is no longer pending was
	// suppressed.
	var mcs, suppressed int64
	for _, r := range receivers {
		mc := c.members[r].Metrics().RegionalMulticasts.Value()
		mcs += mc
		if mc == 0 && !pending(r) {
			suppressed++
		}
	}
	if mcs+suppressed != 2 {
		t.Fatalf("multicasts %d + suppressed %d != 2", mcs, suppressed)
	}
	if suppressed < 1 {
		t.Fatalf("no pending multicast was suppressed: %d multicasts of one repair", mcs)
	}
	// With this seed the first back-off to expire silences the other
	// receiver: exactly one multicast goes out.
	if mcs != 1 {
		t.Fatalf("%d regional multicasts of the repair, want 1", mcs)
	}
	if got := c.deliveredCount(id); got != topo.NumNodes() {
		// Sender's region also gets it? No: only region 1 was repaired; the
		// parent region never received DATA at all in this synthetic setup,
		// so only region 1 members (8) + nobody else have it.
		if got != 8 {
			t.Fatalf("delivered count %d, want 8 region members", got)
		}
	}
}

func TestHashElectPolicyRoutesSearchDirectly(t *testing.T) {
	topo := chainRegions(t, 30, 1)
	region := topo.Members(0)

	s := sim.New()
	lat := netsim.HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	net := netsim.New(s, lat, nil)
	root := rng.New(12)

	members := make(map[topology.NodeID]*Member)
	tl := newTally()
	var all []topology.NodeID
	for r := 0; r < topo.NumRegions(); r++ {
		all = append(all, topo.Members(topology.RegionID(r))...)
	}
	params := DefaultParams()
	transport := tl.wrap(&netsim.Group{Net: net, Members: all})
	for _, n := range all {
		view, err := topo.ViewOf(n)
		if err != nil {
			t.Fatal(err)
		}
		var policy core.Policy
		if topo.RegionOf(n) == 0 {
			regionAll := append([]topology.NodeID{}, region...)
			policy = core.NewHashElect(params.IdleThreshold, 3, n, regionAll, 0)
		}
		m := NewMember(Config{
			View:   view,
			Rng:    root.Split(uint64(n) + 1),
			Policy: policy,
			Region: NewRegion(view, s, transport, params, nil),
		})
		members[n] = m
		net.Register(n, tl.handler(n, m))
	}

	id := wire.MessageID{Source: topo.Sender(), Seq: 7}
	elect := core.NewHashElect(params.IdleThreshold, 3, region[0], region, 0)
	set := elect.Bufferers(id)
	inSet := make(map[topology.NodeID]bool, len(set))
	for _, b := range set {
		inSet[b] = true
	}
	for _, n := range region {
		if inSet[n] {
			members[n].InjectLongTerm(id, []byte("d"))
		} else {
			members[n].InjectDiscarded(id)
		}
	}
	// Pick a non-bufferer target.
	var target topology.NodeID = -1
	for _, n := range region {
		if !inSet[n] {
			target = n
			break
		}
	}
	downstream := topo.MemberAt(1, 0)
	net.Unicast(downstream, target, wire.Message{
		Type: wire.TypeRemoteRequest, From: downstream, ID: id, Origin: downstream,
	})
	s.RunUntil(2 * time.Second)

	if !members[downstream].HasReceived(id) {
		t.Fatal("deterministic lookup failed to repair the requester")
	}
	// The search must have gone directly to a bufferer: exactly one SEARCH
	// from the target, and no search opened anywhere else (a join opens
	// one at the joiner).
	if got := tl.sent[nodeType{target, wire.TypeSearch}]; got != 1 {
		t.Fatalf("target sent %d SEARCH messages, want 1 (direct route)", got)
	}
	var joins int64
	for _, n := range region {
		if n != target {
			joins += members[n].Metrics().SearchesStarted.Value()
		}
	}
	if joins != 0 {
		t.Fatalf("deterministic routing caused %d search joins", joins)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		topo := singleRegion(t, 25)
		loss := &netsim.BernoulliLoss{P: 0.3, Only: map[wire.Type]bool{wire.TypeData: true}, Rng: rng.New(555)}
		params := DefaultParams()
		params.C = 25 // deterministic reliability: every member elects long-term
		c := newCluster(t, topo, params, 42, loss)
		c.sender.StartSessions()
		for i := 0; i < 8; i++ {
			i := i
			c.sim.At(time.Duration(i)*10*time.Millisecond, func() { c.sender.Publish([]byte{byte(i)}) })
		}
		c.sim.RunUntil(2 * time.Second)
		var delivered int64
		for _, m := range c.members {
			delivered += m.Metrics().Delivered.Value()
		}
		return c.net.Stats().TotalSent(), delivered
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Fatalf("identical seeds diverged: sent %d vs %d, delivered %d vs %d", s1, s2, d1, d2)
	}
	if d1 != 25*8 {
		t.Fatalf("delivered %d, want %d", d1, 25*8)
	}
}

func TestUnrecoverableLossGivesUp(t *testing.T) {
	// Nobody has the message and there is no parent region: local recovery
	// must exhaust its budget and stop, leaving the simulation quiescent.
	topo := singleRegion(t, 6)
	params := DefaultParams()
	params.MaxLocalTries = 5
	c := newCluster(t, topo, params, 13, nil)
	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	m := c.members[topo.MemberAt(0, 3)]
	m.StartRecovery(id)
	c.sim.MustQuiesce(10_000)
	if m.HasReceived(id) {
		t.Fatal("recovered a message nobody had")
	}
	// No parent region: the local give-up abandons the last phase.
	if got := slices.Collect(m.Unrecovered); len(got) != 1 {
		t.Fatalf("Unrecovered yields %v after the local give-up, want [%v]", got, id)
	}
	if got := m.Metrics().LocalReqSent.Value(); got != 5 {
		t.Fatalf("sent %d local requests, want 5", got)
	}
}

func TestRemoteRequestProbabilityScalesWithLambda(t *testing.T) {
	// With an entire region missing and λ=1, each retry round generates ~1
	// remote request in expectation across the region.
	topo := chainRegions(t, 50, 50)
	params := DefaultParams()
	params.MaxRemoteTries = 10
	params.MaxLocalTries = 1 // keep local traffic from drowning the run
	c := newCluster(t, topo, params, 14, nil)

	id := wire.MessageID{Source: topo.Sender(), Seq: 1}
	// Parent region never had it either; nothing is recoverable, we only
	// count RREQ traffic.
	for _, n := range topo.Members(1) {
		c.members[n].StartRecovery(id)
	}
	c.sim.MustQuiesce(2_000_000)
	var rreqs int64
	for _, n := range topo.Members(1) {
		rreqs += c.members[n].Metrics().RemoteReqSent.Value()
	}
	// 10 rounds × λ=1 → expect ~10; allow generous randomness bounds.
	if rreqs < 3 || rreqs > 25 {
		t.Fatalf("remote requests %d over 10 rounds, want ≈10", rreqs)
	}
}

func TestInjectHelpers(t *testing.T) {
	topo := singleRegion(t, 4)
	c := newCluster(t, topo, DefaultParams(), 15, nil)
	id := wire.MessageID{Source: 0, Seq: 3}
	m := c.members[topo.MemberAt(0, 1)]

	m.InjectDiscarded(id)
	if !m.HasReceived(id) || m.Buffer().Has(id) {
		t.Fatal("InjectDiscarded state wrong")
	}
	m.InjectDeliver(id, []byte("x")) // duplicate: no-op
	if m.Buffer().Has(id) {
		t.Fatal("InjectDeliver resurrected a discarded message")
	}

	id2 := wire.MessageID{Source: 0, Seq: 5}
	m.InjectDeliver(id2, []byte("y"))
	if !m.Buffer().Has(id2) {
		t.Fatal("InjectDeliver did not buffer")
	}
	// Gap 4 must NOT be recovered (injection does not trigger detection).
	if recovering(m, wire.MessageID{Source: 0, Seq: 4}) {
		t.Fatal("InjectDeliver triggered gap recovery")
	}

	id3 := wire.MessageID{Source: 0, Seq: 6}
	m.InjectLongTerm(id3, nil)
	e, ok := m.Buffer().Get(id3)
	if !ok || e.State() != core.StateLongTerm {
		t.Fatal("InjectLongTerm state wrong")
	}
}

func TestNewMemberValidation(t *testing.T) {
	topo := singleRegion(t, 2)
	view, _ := topo.ViewOf(0)
	s := sim.New()
	transport := &netsim.Group{}
	base := Config{View: view, Rng: rng.New(1), Region: NewRegion(view, s, transport, Params{}, nil)}
	for name, build := range map[string]func(){
		"nil transport": func() { NewRegion(view, s, nil, Params{}, nil) },
		"nil sched":     func() { NewRegion(view, nil, transport, Params{}, nil) },
		"nil rng":       func() { c := base; c.Rng = nil; NewMember(c) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}
