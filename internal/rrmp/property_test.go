package rrmp

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestConvergenceProperty: for arbitrary seeds, loss rates up to 50%, and
// region sizes, a group running with C = n (certain long-term bufferers)
// delivers every published message to every member. This is the protocol's
// core guarantee in the regime where §5's probabilistic caveat vanishes.
func TestConvergenceProperty(t *testing.T) {
	prop := func(seedRaw uint16, nRaw, lossRaw, msgsRaw uint8) bool {
		n := int(nRaw%20) + 5              // 5..24 members
		lossP := float64(lossRaw%51) / 100 // 0..0.50
		msgs := int(msgsRaw%4) + 1         // 1..4 messages
		seed := uint64(seedRaw) + 1

		topo, err := topology.SingleRegion(n)
		if err != nil {
			return false
		}
		params := DefaultParams()
		params.C = float64(n)
		c := newClusterQuiet(topo, params, seed, &netsim.BernoulliLoss{
			P:    lossP,
			Only: map[wire.Type]bool{wire.TypeData: true},
			Rng:  rng.New(seed ^ 0xff),
		})
		c.sender.StartSessions()
		for i := 0; i < msgs; i++ {
			i := i
			c.sim.At(time.Duration(i)*15*time.Millisecond, func() { c.sender.Publish([]byte{byte(i)}) })
		}
		c.sim.RunUntil(4 * time.Second)
		for seq := uint64(1); seq <= uint64(msgs); seq++ {
			id := wire.MessageID{Source: topo.Sender(), Seq: seq}
			if c.deliveredCount(id) != n {
				return false
			}
		}
		// Invariant: nobody double-delivers (Delivered counts distinct).
		var delivered int64
		for _, m := range c.members {
			delivered += m.Metrics().Delivered.Value()
		}
		return delivered == int64(n*msgs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchAlwaysResolvesProperty: for arbitrary placements with at least
// one long-term bufferer, a remote request eventually produces the repair.
func TestSearchAlwaysResolvesProperty(t *testing.T) {
	prop := func(seedRaw uint16, nRaw, bRaw uint8) bool {
		n := int(nRaw%40) + 10 // 10..49
		b := int(bRaw)%n + 1   // 1..n bufferers
		seed := uint64(seedRaw) + 1

		topo, err := topology.Chain(n, 1)
		if err != nil {
			return false
		}
		params := DefaultParams()
		params.LongTermTTL = 0
		c := newClusterQuiet(topo, params, seed, nil)
		id := wire.MessageID{Source: topo.Sender(), Seq: 1}
		region := topo.Members(0)
		pick := rng.New(seed).Split(7)
		perm := pick.Perm(n)
		holders := make(map[topology.NodeID]bool, b)
		for i := 0; i < b; i++ {
			holders[region[perm[i]]] = true
		}
		for _, node := range region {
			if holders[node] {
				c.members[node].InjectLongTerm(id, []byte("p"))
			} else {
				c.members[node].InjectDiscarded(id)
			}
		}
		requester := topo.MemberAt(1, 0)
		target := region[pick.Intn(n)]
		c.net.Unicast(requester, target, wire.Message{
			Type: wire.TypeRemoteRequest, From: requester, ID: id, Origin: requester,
		})
		c.sim.RunUntil(20 * time.Second)
		return c.members[requester].HasReceived(id)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuiescenceProperty: after delivery completes and sessions stop, the
// simulation drains — no protocol component spins forever.
func TestQuiescenceProperty(t *testing.T) {
	prop := func(seedRaw uint16, lossRaw uint8) bool {
		seed := uint64(seedRaw) + 1
		lossP := float64(lossRaw%31) / 100
		topo, err := topology.SingleRegion(12)
		if err != nil {
			return false
		}
		params := DefaultParams()
		params.C = 12
		params.LongTermTTL = 500 * time.Millisecond
		c := newClusterQuiet(topo, params, seed, &netsim.BernoulliLoss{
			P:    lossP,
			Only: map[wire.Type]bool{wire.TypeData: true},
			Rng:  rng.New(seed ^ 0xaa),
		})
		c.sender.Publish([]byte("q"))
		c.sim.RunUntil(2 * time.Second)
		// No sessions were started; the event queue must be empty or
		// near-empty (only bounded-retry stragglers), and bounded-draining.
		c.sim.MustQuiesce(200_000)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// newClusterQuiet builds a cluster without requiring *testing.T (usable
// inside quick.Check properties).
func newClusterQuiet(topo *topology.Topology, params Params, seed uint64, loss netsim.LossModel) *cluster {
	s := sim.New()
	lat := netsim.HierLatency{Topo: topo, IntraOneWay: 5 * time.Millisecond, InterOneWay: 50 * time.Millisecond}
	net := netsim.New(s, lat, loss)
	root := rng.New(seed)
	c := &cluster{sim: s, net: net, topo: topo, members: make(map[topology.NodeID]*Member)}
	for r := 0; r < topo.NumRegions(); r++ {
		c.all = append(c.all, topo.Members(topology.RegionID(r))...)
	}
	for _, n := range c.all {
		view, err := topo.ViewOf(n)
		if err != nil {
			panic(err)
		}
		m := NewMember(Config{
			View:      view,
			Transport: &NetTransport{Net: net, Self: n, Group: c.all},
			Sched:     s,
			Rng:       root.Split(uint64(n) + 1),
			Params:    params,
		})
		c.members[n] = m
		member := m
		net.Register(n, func(p netsim.Packet) { member.Receive(p.From, p.Msg) })
	}
	c.sender = NewSender(c.members[topo.Sender()])
	return c
}

// TestCrashFaultAccountingProperty is the crash-fault safety property:
// under an arbitrary crash schedule of non-sender members below quorum
// (fewer than half the group crash-stops, at arbitrary times, possibly
// including every long-term bufferer of a message), every published
// message is eventually either delivered to each surviving member or
// explicitly counted in that member's Unrecoverable metric. Nothing is
// ever silently lost. Run across 24 deterministic seeds.
func TestCrashFaultAccountingProperty(t *testing.T) {
	const seeds = 24
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			draw := rng.New(seed).Split(0xc4a54)
			n := 10 + int(draw.Uint64n(11)) // 10..20 members
			msgs := 3 + int(draw.Uint64n(4))
			lossP := 0.1 + 0.3*draw.Float64()

			topo, err := topology.SingleRegion(n)
			if err != nil {
				t.Fatal(err)
			}
			params := DefaultParams()
			params.FDEnabled = true
			params.C = 2 // few bufferers, so crashes can kill every holder
			params.LongTermTTL = 0
			c := newClusterQuiet(topo, params, seed, &netsim.BernoulliLoss{
				P:    lossP,
				Only: map[wire.Type]bool{wire.TypeData: true},
				Rng:  rng.New(seed ^ 0xcc),
			})
			c.sender.StartSessions()
			for i := 0; i < msgs; i++ {
				i := i
				c.sim.At(time.Duration(i)*25*time.Millisecond, func() {
					c.sender.Publish([]byte{byte(i)})
				})
			}

			// Crash schedule: k < n/2 distinct non-sender members at
			// arbitrary instants in the first two seconds.
			k := 1 + int(draw.Uint64n(uint64(n/2-1))) // 1 .. n/2-1
			perm := draw.Perm(n - 1)
			for i := 0; i < k; i++ {
				victim := topology.NodeID(perm[i] + 1) // skip sender 0
				at := time.Duration(draw.Uint64n(uint64(2 * time.Second)))
				c.sim.At(at, func() {
					c.members[victim].Crash()
					c.net.SetDown(victim, true)
				})
			}

			// Long horizon: every retry budget (64 local tries ≈ 0.7 s per
			// episode, restarted at most once per session round) concludes
			// well before 15 s of virtual time.
			c.sim.RunUntil(15 * time.Second)

			for seq := uint64(1); seq <= uint64(msgs); seq++ {
				id := wire.MessageID{Source: topo.Sender(), Seq: seq}
				for _, node := range c.all {
					m := c.members[node]
					if m.Crashed() {
						continue // crashed members are excused
					}
					if m.HasReceived(id) {
						continue
					}
					if recovering(m, id) {
						t.Fatalf("member %d still recovering %v at horizon", node, id)
					}
					unrec := false
					for _, u := range m.Unrecovered() {
						if u == id {
							unrec = true
							break
						}
					}
					if !unrec {
						t.Fatalf("member %d silently lost %v: neither delivered nor counted unrecoverable", node, id)
					}
				}
			}
			// Accounting invariant: the counter equals the set size.
			for _, node := range c.all {
				m := c.members[node]
				if got, want := m.Metrics().Unrecoverable.Value(), int64(len(m.Unrecovered())); got != want {
					t.Fatalf("member %d Unrecoverable=%d but |Unrecovered|=%d", node, got, want)
				}
			}
		})
	}
}
