package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rrmp"
	"repro/internal/runner"
	"repro/internal/wire"
)

// rrmp layer: the member hooks of the open trial (counts at the protocol's
// boundaries), the Member.Metrics() roll-up, and the 100-member trial probe.

// memberHooks counts deliveries, recoveries and promotions on the member's
// lane. Evictions are counted by the policy wrapper, which sees the reason
// on the same call.
func memberHooks(l *lane) rrmp.Hooks {
	return rrmp.Hooks{
		OnDeliver:   func(wire.MessageID, time.Duration) { l.counts[cntDelivers]++ },
		OnRecovered: func(wire.MessageID, time.Duration) { l.counts[cntRecoveries]++ },
		OnPromote:   func(*core.Entry) { l.counts[cntPromotions]++ },
	}
}

// collectMembers sums the members' protocol counters after the run.
func collectMembers(c *runner.Cluster) memberTotals {
	var t memberTotals
	for _, m := range c.Members {
		mm := m.Metrics()
		t.delivered += float64(mm.Delivered.Value())
		t.duplicates += float64(mm.Duplicates.Value())
		t.localReq += float64(mm.LocalReqSent.Value())
		t.remoteReq += float64(mm.RemoteReqSent.Value())
		t.repairs += float64(mm.RepairsSent.Value())
		t.searches += float64(mm.SearchesStarted.Value())
		t.recoverySumMs += mm.RecoveryLatency.Mean() * float64(mm.RecoveryLatency.N())
		t.recoveryN += float64(mm.RecoveryLatency.N())
	}
	return t
}

// n100Scenario is the small trial both protocol probes time: one
// 100-member region at 5% loss.
func n100Scenario(protocol string) exp.Scenario {
	sc := exp.Scenario{
		Protocol: protocol,
		Regions:  []int{100},
		Loss:     0.05,
		Policy:   "two-phase",
		Msgs:     20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
	}
	if protocol == "rmtp" {
		sc.Policy = "server"
	}
	return sc
}

// trialN100 is the median wall time of five such trials.
func trialN100(protocol string) float64 {
	sc := n100Scenario(protocol)
	var walls []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := runner.RunScenario(sc, exp.TrialSeed(1, i)); err != nil {
			return 0
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls)
}

func probeRRMP(m map[string]float64) { m["rrmp.trial_s_n100"] = trialN100("") }
