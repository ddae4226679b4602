package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// diffPolicies builds one fresh instance of every registered policy shape
// for a differential run. Fresh per call: the adaptive policy carries
// demand state and the feedback policies carry rng state, so instances
// must never be shared across runs.
func diffPolicies() map[string]func() Policy {
	region := make([]topology.NodeID, 8)
	for i := range region {
		region[i] = topology.NodeID(i)
	}
	return map[string]func() Policy{
		"two-phase": func() Policy { return NewTwoPhase(10*time.Millisecond, 3, 8, 500*time.Millisecond) },
		"fixed":     func() Policy { return &FixedHold{D: 30 * time.Millisecond} },
		"all":       func() Policy { return BufferAll{} },
		"hash": func() Policy {
			return NewHashElect(10*time.Millisecond, 3, 0, region, 500*time.Millisecond)
		},
		"adaptive": func() Policy {
			p := NewAdaptiveHold(AdaptiveConfig{
				TMin: 5 * time.Millisecond, TMax: 50 * time.Millisecond,
				Target: 2, Alpha: 0.5, C: 3, N: 8, TTL: 500 * time.Millisecond,
			})
			p.BindRng(rng.New(0xbeef))
			return p
		},
	}
}

// diffScript drives one randomized op script (stores from several sources,
// feedback, stability removals, leave handoffs, time advances, pressure
// from a byte budget) against a buffer running the given policy, and
// returns the full ledger plus the end-of-run metric snapshot. The ledger
// records every eviction, the entries each TakeForHandoff returns, and the
// Entries() snapshot after every op — the order leave handoff pairs with
// rng draws, so a change in it would re-pair handoff peers in every churn
// cell — and any disagreement between the buffer's index and the map
// oracle after an op (mirrorAgrees). The script is a pure function of
// seed, so two calls with the same seed see identical ops.
func diffScript(policy Policy, seed uint64) (ledger []string, metrics string) {
	const budget = 1 << 11
	s := sim.New()
	b := NewBuffer(Config{
		Policy:     policy,
		Sched:      s,
		Rng:        rng.New(seed),
		ByteBudget: budget,
	})
	b.hooks().onEvict = func(e *Entry, r EvictReason) {
		ledger = append(ledger, fmt.Sprintf("%d/%d %v %v short=%d",
			e.ID.Source, e.ID.Seq, r, e.State(), b.Len()-b.LongTermCount()))
	}
	list := func(es []*Entry) string {
		var sb strings.Builder
		for _, e := range es {
			fmt.Fprintf(&sb, " %d/%d:%v", e.ID.Source, e.ID.Seq, e.State())
		}
		return sb.String()
	}
	do := func(at time.Duration, op func()) {
		s.At(at, func() {
			op()
			ledger = append(ledger, "entries"+list(b.Entries()))
			if err := mirrorAgrees(b, policy); err != nil {
				ledger = append(ledger, "oracle: "+err.Error())
			}
		})
	}
	script := rng.New(seed)
	at := time.Duration(0)
	seqs := make(map[topology.NodeID]uint64)
	var known []wire.MessageID
	for op := 0; op < 300; op++ {
		at += time.Duration(script.Intn(4)) * time.Millisecond
		switch draw := script.Intn(20); {
		case draw < 12: // store from one of 4 sources, skewed toward source 0
			src := topology.NodeID(script.Intn(8) / 2 % 4)
			seqs[src]++
			id := wire.MessageID{Source: src, Seq: seqs[src]}
			known = append(known, id)
			sz := 64 + script.Intn(budget/4)
			do(at, func() { b.Store(id, make([]byte, sz)) })
		case draw < 18: // feedback touch on a random known id
			if len(known) > 0 {
				id := known[script.Intn(len(known))]
				do(at, func() { b.OnRequest(id) })
			}
		case draw < 19: // stability removal of a random known id
			if len(known) > 0 {
				id := known[script.Intn(len(known))]
				do(at, func() { b.Remove(id, EvictStable) })
			}
		default: // leave handoff: the long-term copies, in transfer order
			do(at, func() { ledger = append(ledger, "handoff"+list(b.TakeForHandoff())) })
		}
	}
	s.RunUntil(-1)
	var counts []string
	for _, reason := range []EvictReason{EvictIdle, EvictTTL, EvictHandoff, EvictStable, EvictManual, EvictPressure} {
		counts = append(counts, fmt.Sprintf("%v=%d", reason, b.EvictedCount(reason)))
	}
	metrics = fmt.Sprintf("len=%d bytes=%d peak=%d short=%d denied=%d evicted=%v",
		b.Len(), b.Bytes(), b.PeakBytes(), b.Len()-b.LongTermCount(), b.DeniedCount(), counts)
	return ledger, metrics
}

// TestPolicyDifferentialAcrossIndexKinds is the widened-contract
// differential property: under every registered policy — the four legacy
// shapes riding PolicyBase and the demand-aware adaptive policy — the
// buffer's dense index must agree with the map reference
// (reference_test.go) after every op of the script on Entries() order, the
// order leave handoff pairs with rng draws, and on the pressure victim,
// which a policy-owned DisplacedBefore that is not a strict total order
// would let the map's iteration order change; and two runs of one script
// must give byte-identical ledgers and end-of-run metrics.
func TestPolicyDifferentialAcrossIndexKinds(t *testing.T) {
	for name, mk := range diffPolicies() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				ledger, metrics := diffScript(mk(), seed)
				for _, line := range ledger {
					if strings.HasPrefix(line, "oracle: ") {
						t.Fatalf("seed %d: %s", seed, line)
					}
				}
				again, againMetrics := diffScript(mk(), seed)
				if fmt.Sprint(ledger) != fmt.Sprint(again) {
					t.Fatalf("seed %d: ledgers diverge:\nfirst:  %v\nsecond: %v", seed, ledger, again)
				}
				if metrics != againMetrics {
					t.Fatalf("seed %d: metrics diverge:\nfirst:  %s\nsecond: %s", seed, metrics, againMetrics)
				}
			}
		})
	}
}

// TestLegacyPoliciesIgnoreObservations pins the byte-identity invariant
// behind the widened contract: the legacy policies' hold and idle-time
// decisions are unchanged by any sequence of observation events, so every
// committed report regenerates identically under the new interface.
func TestLegacyPoliciesIgnoreObservations(t *testing.T) {
	region := []topology.NodeID{0, 1, 2, 3}
	for name, p := range map[string]Policy{
		"two-phase": NewTwoPhase(40*time.Millisecond, 2, 4, time.Minute),
		"fixed":     &FixedHold{D: 30 * time.Millisecond},
		"all":       BufferAll{},
		"hash":      NewHashElect(40*time.Millisecond, 2, 0, region, time.Minute),
	} {
		id := wire.MessageID{Source: 1, Seq: 9}
		h0, r0 := p.Hold(id)
		p.ObserveStore(id, time.Millisecond)
		p.ObserveRequest(id, 2*time.Millisecond)
		p.ObserveRequest(id, 3*time.Millisecond)
		p.ObserveEvict(id, EvictPressure)
		h1, r1 := p.Hold(id)
		if h0 != h1 || r0 != r1 {
			t.Fatalf("%s: Hold changed after observations: (%v,%v) -> (%v,%v)", name, h0, r0, h1, r1)
		}
		a := &Entry{ID: wire.MessageID{Source: 0, Seq: 1}, PromotedAt: -1}
		c := &Entry{ID: wire.MessageID{Source: 2, Seq: 2}, PromotedAt: -1, LastRequest: time.Millisecond}
		if p.DisplacedBefore(a, c) != DefaultDisplacedBefore(a, c) {
			t.Fatalf("%s: DisplacedBefore diverges from the historic order", name)
		}
	}
}
