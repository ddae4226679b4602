package main

import "testing"

// smokeConfig runs at ~1/50 scale with the width the binary would use.
func smokeConfig() runConfig {
	return runConfig{seed: 1, seconds: defaultSeconds, smoke: true, w: width()}
}

// `bench run -smoke`: every workload produces every end-to-end metric it
// does not declare as a gap, no trial fails, and the simulated outcome is a
// pure function of the seed.
func TestSmokeRunProducesEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		res, err := runWorkload(name, smokeConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || len(res.Violations) != 0 {
			t.Errorf("%s: %d failed: %v", name, res.Failed, res.Violations)
		}
		if res.Attempted < 1 || res.TrialWall.Count < 1 {
			t.Errorf("%s: attempted %d, timed %d", name, res.Attempted, res.TrialWall.Count)
		}
		for _, m := range e2eMetrics {
			v, ok := res.Metrics[m.Name]
			switch {
			case omittedE2E[name][m.Name]:
				if ok {
					t.Errorf("%s: declared gap %s is reported", name, m.Name)
				}
			case !ok:
				t.Errorf("%s: metric %s missing", name, m.Name)
			case m.Name != mFailedFrac && v <= 0:
				t.Errorf("%s: metric %s = %v, want > 0", name, m.Name, v)
			}
		}
		again, err := runWorkload(name, smokeConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.SimDigest == "" || res.SimDigest != again.SimDigest {
			t.Errorf("%s: sim_digest %q then %q", name, res.SimDigest, again.SimDigest)
		}
		if name == wlStream10k {
			// Lossless, and at smoke scale every region is small enough
			// that the election is certain: nothing left for the seed.
			continue
		}
		other := smokeConfig()
		other.seed = 2
		if diff, err := runWorkload(name, other); err != nil || diff.SimDigest == res.SimDigest {
			t.Errorf("%s: seed 2 reproduced seed 1's digest (err %v)", name, err)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload("nope", smokeConfig()); err == nil {
		t.Error("an unknown workload ran")
	}
	if _, err := traceWorkload("nope", smokeConfig(), ""); err == nil {
		t.Error("an unknown workload traced")
	}
}

func TestTrialCountsScaleWithSeconds(t *testing.T) {
	def, _ := scenarioWorkload(wlStream10k)
	for _, c := range []struct{ seconds, want int }{{15, 8}, {30, 16}, {60, 32}, {1, 1}} {
		if got := def.trials(c.seconds, false); got != c.want {
			t.Errorf("stream10k at %d s: %d trials, want %d", c.seconds, got, c.want)
		}
	}
}
