package main

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/workload"
)

// `bench trace -smoke`: every workload reports every per-layer metric, the
// mirror check passes where it applies, and the zero-predictions hold.
func TestSmokeTraceProducesEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		res, err := traceWorkload(name, smokeConfig(), "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range layerMetrics {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: metric %s missing", name, m.Name)
			}
		}
		if len(res.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d metrics reported, catalogue has %d", name, len(res.Metrics), len(layerMetrics))
		}
		for _, probe := range []string{"eventq.pushpop_ns_d1e3", "sim.serial_ns_per_event", "netsim.unicast_ns",
			"core.store_idle_ns", "policy.parse_ns", "gossipfd.tick_ns_n100", "rmtp.trial_s_n100", "topology.viewof_ns"} {
			if res.Metrics[probe] <= 0 {
				t.Errorf("%s: probe %s = %v", name, probe, res.Metrics[probe])
			}
		}
		wantMirror := "ok"
		if name == wlSweep600 {
			wantMirror = "n/a"
		}
		if res.Mirror != wantMirror {
			t.Errorf("%s: mirror %q, want %q", name, res.Mirror, wantMirror)
		}
		if sharded := res.Metrics["sim.shard_speedup"] > 0; sharded != (name == wlScale100k && width() > 1) {
			t.Errorf("%s: sim.shard_speedup = %v", name, res.Metrics["sim.shard_speedup"])
		}
		if name == wlStream10k {
			for _, zero := range []string{"netsim.loss_calls", "core.evictions_pressure", "core.displaced_before_calls", "rrmp.searches", "rrmp.recoveries"} {
				if res.Metrics[zero] != 0 {
					t.Errorf("stream10k: %s = %v, predicted 0", zero, res.Metrics[zero])
				}
			}
		}
		if name == wlSweep600 {
			var cpu float64
			for _, f := range sweepFamilies {
				cpu += res.Metrics["runner.sweep_cpu_s."+f]
			}
			if cpu <= 0 || res.Metrics["exp.pool_efficiency"] <= 0 {
				t.Errorf("sweep600: family cpu %v, pool efficiency %v", cpu, res.Metrics["exp.pool_efficiency"])
			}
		}
	}
}

// The mirror check on a 300-member topology, serial and sharded: the open
// trial, wrappers and all, is the program RunScenario runs. Beyond the four
// mirrored keys, the protocol counters the wrappers could perturb agree too
// ("wrappers do not change the digest").
func TestOpenTrialMirrorsRunScenario(t *testing.T) {
	sc := exp.Scenario{
		Regions: []int{100, 100, 100},
		Loss:    0.2, LossMode: "hash",
		Policy:     "adaptive",
		ByteBudget: 16384,
		Horizon:    3 * time.Second,
		Workload: &workload.Spec{
			Clients: 4, Msgs: 40,
			Arrival: workload.ArrivalBurst, Gap: 200 * time.Millisecond,
			BurstLen: 8, BurstGap: 2 * time.Millisecond,
			SizeModel: workload.SizeLognormal, SizeMean: 1024,
		},
	}
	for _, shards := range []int{1, 3} {
		sc.Shards = shards
		for _, policy := range []string{"adaptive", "two-phase"} {
			sc.Policy = policy
			seed := exp.TrialSeed(7, shards)
			ref, err := runner.RunScenario(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			o, err := runOpenTrial(sc, seed, newRecorder(3), 0)
			if err != nil {
				t.Fatal(err)
			}
			if why := mirrorMismatch(o, ref); why != "" {
				t.Errorf("shards=%d policy=%s: %s", shards, policy, why)
			}
			for key, got := range map[string]float64{
				runner.MKRepairs:        o.member.repairs,
				runner.MKDuplicates:     o.member.duplicates,
				runner.MKLocalRequests:  o.member.localReq,
				runner.MKRemoteRequests: o.member.remoteReq,
				runner.MKSearches:       o.member.searches,
				runner.MKMeanRecoveryMs: o.member.recoverySumMs / o.member.recoveryN,
			} {
				if got != ref[key] {
					t.Errorf("shards=%d policy=%s: %s = %v, RunScenario has %v", shards, policy, key, got, ref[key])
				}
			}
		}
	}
}

func TestMirrorDetectsADifferentProgram(t *testing.T) {
	sc := exp.Scenario{Regions: []int{50}, Policy: "two-phase", Msgs: 5, Gap: 20 * time.Millisecond, Horizon: time.Second}
	ref, err := runner.RunScenario(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Msgs = 6
	o, err := runOpenTrial(sc, 1, newRecorder(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mirrorMismatch(o, ref) == "" {
		t.Error("a trial with one more publish mirrored")
	}
}

func TestOpenTrialRefusesFaults(t *testing.T) {
	sc := exp.Scenario{Regions: []int{50}, Crash: 1, Policy: "two-phase", Msgs: 5, Gap: 20 * time.Millisecond, Horizon: time.Second}
	if _, err := runOpenTrial(sc, 1, newRecorder(1), 0); err == nil {
		t.Error("a crash scenario was opened: the open trial mirrors fault-free runs only")
	}
}

func TestSweepFamiliesPartitionTheMatrix(t *testing.T) {
	counts := map[string]int{}
	total := 0
	for i, sw := range sweep600Sweeps(false) {
		for _, sc := range sw.Expand() {
			counts[sweepFamily(i, sc)]++
			total++
		}
	}
	if total != 600 {
		t.Errorf("sweep600 expands to %d cells, want 600", total)
	}
	for _, f := range sweepFamilies {
		if counts[f] == 0 {
			t.Errorf("family %s has no cell", f)
		}
		total -= counts[f]
	}
	if total != 0 {
		t.Errorf("%d cells fall outside sweepFamilies", total)
	}
}
