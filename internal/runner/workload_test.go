package runner

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestTimelineForLegacyShape pins the nil-workload timeline against the
// historic single-sender contract: client 0 publishing Msgs messages
// exactly Gap apart with the payloadSizesFor draws — the identity that
// keeps every pre-workload cell byte-stable.
func TestTimelineForLegacyShape(t *testing.T) {
	sc := exp.Scenario{Regions: []int{10}, Msgs: 15, Gap: 20 * time.Millisecond,
		PayloadModel: "lognormal", PayloadBytes: 512}
	tl, maxBytes, err := TimelineFor(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	sizes, wantMax, err := payloadSizesFor(sc.PayloadModel, sc.PayloadBytes, sc.Msgs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != sc.Msgs || maxBytes != wantMax {
		t.Fatalf("legacy timeline %d events max %d, want %d/%d", len(tl), maxBytes, sc.Msgs, wantMax)
	}
	for i, e := range tl {
		if e.At != time.Duration(i)*sc.Gap || e.Client != 0 || e.Bytes != sizes[i] {
			t.Fatalf("event %d = %+v, want (%v, 0, %d)", i, e, time.Duration(i)*sc.Gap, sizes[i])
		}
	}
}

func TestPublisherNodes(t *testing.T) {
	topo, err := topology.Chain(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := publisherNodes(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 4 || pubs[0] != topo.Sender() {
		t.Fatalf("pubs %v: client 0 must sit on the legacy sender", pubs)
	}
	seen := map[topology.NodeID]bool{}
	for _, p := range pubs {
		if seen[p] {
			t.Fatalf("publisher %d mapped twice: %v", p, pubs)
		}
		seen[p] = true
	}
	again, _ := publisherNodes(topo, 4)
	for i := range pubs {
		if pubs[i] != again[i] {
			t.Fatal("publisher mapping not deterministic")
		}
	}
	if _, err := publisherNodes(topo, 21); err == nil {
		t.Fatal("more clients than members accepted")
	}
}

// Fault candidates must exclude every publisher, not just the legacy
// sender: a workload cell's publish timeline is part of cell identity and
// may not be perturbed by churn eating a publisher.
func TestFaultsShieldPublishers(t *testing.T) {
	sc := exp.Scenario{
		Regions: []int{8, 8},
		Policy:  "two-phase",
		Churn:   50, Crash: 50, // aggressive: nearly every candidate drawn
		Msgs: 4, Gap: 10 * time.Millisecond, Horizon: 2 * time.Second,
		Workload: &workload.Spec{Clients: 6, Msgs: 24,
			Arrival: workload.ArrivalPoisson, Gap: 50 * time.Millisecond},
	}
	topo, err := ScenarioTopology(sc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Topo: topo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := publisherNodes(topo, sc.Workload.Clients)
	if err != nil {
		t.Fatal(err)
	}
	shielded := map[topology.NodeID]bool{}
	for _, p := range pubs {
		shielded[p] = true
	}
	var victims []topology.NodeID
	d := protocolDriver{
		engine:  c.Engine,
		net:     c.Net,
		excused: func(topology.NodeID) bool { return false },
		leave:   func(v topology.NodeID) { victims = append(victims, v) },
		crash:   func(v topology.NodeID) { victims = append(victims, v) },
		recover: func(topology.NodeID) {},
	}
	scheduleScenarioFaults(d, topo, sc, 3, pubs)
	c.Engine.RunUntil(sc.Horizon)
	if len(victims) == 0 {
		t.Fatal("aggressive fault rates drew no victims")
	}
	for _, v := range victims {
		if shielded[v] {
			t.Fatalf("fault hit publisher %d (publishers %v)", v, pubs)
		}
	}
}

// TestRecordedTimelineReplaysByteIdentical is the trace-replay acceptance
// gate: materializing a workload cell's timeline and replaying it through
// RunScenarioWith must reproduce RunScenario's metrics exactly, under both
// protocols.
func TestRecordedTimelineReplaysByteIdentical(t *testing.T) {
	for _, proto := range []string{"", "rmtp"} {
		sc := exp.Scenario{
			Protocol: proto,
			Regions:  []int{10, 10},
			Loss:     0.1, LossMode: "hash",
			Policy: "two-phase",
			Msgs:   10, Gap: 20 * time.Millisecond, Horizon: 3 * time.Second,
			Workload: exp.MultiClientWorkload(),
		}
		if proto == "rmtp" {
			sc.Policy = "server"
		}
		want, err := RunScenario(sc, 11)
		if err != nil {
			t.Fatal(err)
		}
		tl, _, err := TimelineFor(sc, 11)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunScenarioWith(sc, 11, tl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("proto %q: replay has %d metrics, want %d", proto, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("proto %q: replayed %q = %v, want %v", proto, k, got[k], v)
			}
		}
	}
}

func TestRunScenarioTimelineRejectsInvalid(t *testing.T) {
	sc := exp.Scenario{Regions: []int{6}, Policy: "two-phase",
		Msgs: 5, Gap: time.Millisecond, Horizon: time.Second}
	bad := workload.Timeline{
		{At: time.Second, Client: 0, Bytes: 8},
		{At: 0, Client: 0, Bytes: 8},
	}
	if _, err := RunScenarioWith(sc, 1, bad, nil); err == nil {
		t.Fatal("out-of-order timeline accepted")
	}
}

// TestVoDPrefixPushPolicyContrast is the ablation's point, as a test: a
// late joiner can recover the whole prefix from the two-phase long-term
// set (its 60 s TTL holds the prefix), while a 500 ms fixed-hold policy
// has evicted it everywhere by join time, stranding messages as
// unrecoverable.
func TestVoDPrefixPushPolicyContrast(t *testing.T) {
	base := exp.Scenario{
		Regions: []int{12, 12},
		Policy:  "two-phase",
		Msgs:    20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		Workload: exp.VoDPrefixPush(),
	}
	two, err := RunScenario(base, 5)
	if err != nil {
		t.Fatal(err)
	}
	fixed := base
	fixed.Policy = "fixed"
	fx, err := RunScenario(fixed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if two["late_joiners"] <= 0 || two["late_joiners"] != fx["late_joiners"] {
		t.Fatalf("late joiners %v vs %v", two["late_joiners"], fx["late_joiners"])
	}
	if two["clients"] != 1 || two["publishes"] != 60 {
		t.Fatalf("vod cell clients=%v publishes=%v", two["clients"], two["publishes"])
	}
	if two["unrecoverable"] != 0 {
		t.Fatalf("two-phase stranded %v messages", two["unrecoverable"])
	}
	if fx["unrecoverable"] <= 0 {
		t.Fatal("fixed-hold policy recovered the evicted prefix (contrast lost)")
	}
	if two["survivor_delivery_ratio"] <= fx["survivor_delivery_ratio"] {
		t.Fatalf("two-phase survivor delivery %v not above fixed %v",
			two["survivor_delivery_ratio"], fx["survivor_delivery_ratio"])
	}
}

// The rmtp kernel must run every workload shape; lossless multi-client
// cells deliver everything (from the root, RMTP being single-source).
func TestTreeScenarioWorkloadSmoke(t *testing.T) {
	sc := exp.Scenario{
		Protocol: "rmtp",
		Regions:  []int{8, 8},
		Policy:   "server",
		Msgs:     10, Gap: 20 * time.Millisecond, Horizon: 4 * time.Second,
		Workload: exp.BurstyWorkload(),
	}
	m, err := RunScenario(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m["clients"] != 4 || m["publishes"] != 48 {
		t.Fatalf("clients=%v publishes=%v", m["clients"], m["publishes"])
	}
	if m["delivery_ratio"] != 1 {
		t.Fatalf("lossless rmtp workload delivery %v", m["delivery_ratio"])
	}
	if _, ok := m["late_joiners"]; ok {
		t.Fatal("late_joiners key in a cell without late joiners")
	}
	if _, ok := m["searches"]; ok {
		t.Fatal("rrmp-only key leaked into an rmtp workload cell")
	}
}

// Workload cells must hold the same worker-pool determinism contract as
// every other cell family: byte-identical reports at any Parallel width.
func TestWorkloadSweepByteIdenticalAcrossParallelism(t *testing.T) {
	sw := exp.WorkloadSweep()
	sw.Regions = [][]int{{8, 8}}
	o := exp.Options{Trials: 2, BaseSeed: 1, Parallel: 1}
	serial, err := RunSweeps(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 8
	wide, err := RunSweeps(o, sw)
	if err != nil {
		t.Fatal(err)
	}
	if fmtReport(t, serial) != fmtReport(t, wide) {
		t.Fatal("workload sweep report differs across -parallel widths")
	}
}
