package runner

import (
	"testing"

	"repro/internal/topology"
	"time"
)

func TestAblationPolicies(t *testing.T) {
	rows, err := AblationPolicies(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]PolicyComparison{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	twoPhase := byName["two-phase C=6"]
	bufferAll := byName["buffer-all"]
	fixedShort := byName["fixed-hold 200ms"]

	// Buffer-all must pay far more buffer space than two-phase.
	if bufferAll.BufferIntegral < 5*twoPhase.BufferIntegral {
		t.Fatalf("buffer-all integral %.1f not ≫ two-phase %.1f",
			bufferAll.BufferIntegral, twoPhase.BufferIntegral)
	}
	// Everyone must deliver everything on this mild workload except
	// possibly the probabilistic policies losing a straggler.
	for name, r := range byName {
		if r.DeliveryRatio < 0.99 {
			t.Fatalf("%s delivery ratio %.4f", name, r.DeliveryRatio)
		}
	}
	// Fixed 200ms holds longer than two-phase's ~T+quiet period on a
	// mostly-received workload.
	if fixedShort.MeanBufferingMs <= twoPhase.MeanBufferingMs {
		t.Fatalf("fixed 200ms mean %.1f ms <= two-phase %.1f ms",
			fixedShort.MeanBufferingMs, twoPhase.MeanBufferingMs)
	}
}

func TestAblationLoadBalance(t *testing.T) {
	rows, err := AblationLoadBalance(2)
	if err != nil {
		t.Fatal(err)
	}
	// Flat and two-level topologies, RRMP vs tree on each.
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		rrmpRow, treeRow := rows[i], rows[i+1]
		if rrmpRow.Topology != treeRow.Topology {
			t.Fatalf("row pairing broken: %q vs %q", rrmpRow.Topology, treeRow.Topology)
		}
		// The byte-time integrals must be live, not the dead constant the
		// message-second metric used to alias.
		if rrmpRow.MeanIntegral <= 0 || treeRow.MeanIntegral <= 0 {
			t.Fatalf("%s: zero byte-time integrals: rrmp %.1f tree %.1f",
				rrmpRow.Topology, rrmpRow.MeanIntegral, treeRow.MeanIntegral)
		}
		// The tree server concentrates the load: imbalance must dwarf
		// RRMP's on every topology.
		if treeRow.Imbalance < 5*rrmpRow.Imbalance {
			t.Fatalf("%s: tree imbalance %.1f not ≫ rrmp %.1f",
				treeRow.Topology, treeRow.Imbalance, rrmpRow.Imbalance)
		}
		// The paper's §1 claim, per region: a repair server bears
		// (essentially) the entire regional burden, while no RRMP member
		// carries more than a small share of its region's.
		if treeRow.MaxShare < 0.9 {
			t.Fatalf("%s: tree server share %.2f, want ~1.0", treeRow.Topology, treeRow.MaxShare)
		}
		if rrmpRow.MaxShare > 0.3 {
			t.Fatalf("%s: rrmp max member share %.2f, want well spread", rrmpRow.Topology, rrmpRow.MaxShare)
		}
	}
}

// TestAblationLoadBalanceSized drives the payload-size model through A2:
// a lognormal 1 KB payload must scale the byte-time integrals roughly
// with the mean size, and the qualitative claim must survive variable
// payloads.
func TestAblationLoadBalanceSized(t *testing.T) {
	small, err := AblationLoadBalanceSized(256, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := AblationLoadBalanceSized(1024, "lognormal", 2)
	if err != nil {
		t.Fatal(err)
	}
	if big[1].MeanIntegral < 2*small[1].MeanIntegral {
		t.Fatalf("1 KB lognormal tree integral %.0f not ≫ 256 B fixed %.0f",
			big[1].MeanIntegral, small[1].MeanIntegral)
	}
	if big[1].MaxShare < 0.9 || big[0].MaxShare > 0.3 {
		t.Fatalf("variable payloads broke the load-balance claim: rrmp %.2f tree %.2f",
			big[0].MaxShare, big[1].MaxShare)
	}
}

func TestAblationSearchImplosion(t *testing.T) {
	rows, err := AblationSearchImplosion(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		if byKey[r.Mode] == nil {
			byKey[r.Mode] = map[int]float64{}
		}
		byKey[r.Mode][r.Holders] = r.RepliesPerEpisode
	}
	// Random walk stays near 1 reply regardless of holder count.
	for h, replies := range byKey["random-walk"] {
		if replies > 3 {
			t.Fatalf("random walk sent %.1f replies with %d holders", replies, h)
		}
	}
	// Multicast query implodes as holders grow, and is far worse at 90
	// holders than the random walk (§3.3).
	if byKey["multicast-query"][90] < 3*byKey["random-walk"][90] {
		t.Fatalf("multicast query %.1f replies not ≫ random walk %.1f at 90 holders",
			byKey["multicast-query"][90], byKey["random-walk"][90])
	}
	if byKey["multicast-query"][90] <= byKey["multicast-query"][10] {
		t.Fatalf("multicast query replies did not grow with holders: %v", byKey["multicast-query"])
	}
}

func TestAblationChurn(t *testing.T) {
	rows, err := AblationChurn(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var graceful, crash ChurnResult
	for _, r := range rows {
		if r.Mode == "graceful-handoff" {
			graceful = r
		} else {
			crash = r
		}
	}
	if !graceful.Recovered {
		t.Fatal("graceful handoff did not preserve recoverability")
	}
	if graceful.Handoffs == 0 {
		t.Fatal("no handoffs recorded on graceful leave")
	}
	if crash.Recovered {
		t.Fatal("crash of all bufferers should have made the loss unrecoverable")
	}
	if crash.Handoffs != 0 {
		t.Fatal("crashed members performed handoffs")
	}
}

func TestAblationLambda(t *testing.T) {
	rows, err := AblationLambda([]float64{0.5, 2, 8}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// More aggressive λ sends more remote requests...
	if !(rows[0].RemoteRequests < rows[2].RemoteRequests) {
		t.Fatalf("remote requests not increasing in λ: %+v", rows)
	}
	// ...and repairs the region at least as fast (allow modest noise).
	if rows[2].RecoveryMs > rows[0].RecoveryMs*1.5 {
		t.Fatalf("λ=8 recovery %.1f ms slower than λ=0.5 %.1f ms", rows[2].RecoveryMs, rows[0].RecoveryMs)
	}
}

func TestAblationStabilityTraffic(t *testing.T) {
	rows, err := AblationStabilityTraffic(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	rrmpRow, stabRow := rows[0], rows[1]
	if rrmpRow.DigestBytes != 0 {
		t.Fatalf("RRMP generated %d digest bytes; §3.1 promises zero", rrmpRow.DigestBytes)
	}
	if stabRow.DigestBytes == 0 {
		t.Fatal("stability scheme generated no digest traffic")
	}
	if stabRow.ControlBytes <= rrmpRow.ControlBytes {
		t.Fatalf("stability control bytes %d not > rrmp %d", stabRow.ControlBytes, rrmpRow.ControlBytes)
	}
	for _, r := range rows {
		if r.DeliveryRatio < 0.99 {
			t.Fatalf("%s delivery ratio %.4f", r.Scheme, r.DeliveryRatio)
		}
	}
	// Both schemes must trim to a finite integral; which is smaller depends
	// on RRMP's long-term TTL versus the digest interval, so only
	// positivity is asserted here (EXPERIMENTS.md reports both numbers).
	if stabRow.BufferIntegral <= 0 || rrmpRow.BufferIntegral <= 0 {
		t.Fatalf("degenerate integrals: %+v", rows)
	}
}

func TestTreeClusterDelivery(t *testing.T) {
	topo, err := topology.Chain(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewTreeCluster(TreeClusterConfig{Topo: topo, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c.Sender.Publish([]byte("x"))
	c.Engine.RunUntil(time.Second)
	if got := c.CountReceived(1); got != 10 {
		t.Fatalf("tree cluster delivered %d/10", got)
	}
}

func TestTreeClusterRequiresTopo(t *testing.T) {
	if _, err := NewTreeCluster(TreeClusterConfig{}); err == nil {
		t.Fatal("NewTreeCluster without topology succeeded")
	}
}
