package runner

import (
	"time"

	"repro/internal/exp"
)

// ablationAdaptiveDemand runs A8: the diurnal-burst workload (4 phase-
// shifted publishers running 4x hot for the first second) over a lossy
// two-region group, under the two-phase, fixed-hold and adaptive
// policies. Bursty demand is the adaptive policy's target regime: request
// demand concentrates on the burst sources, so a demand-scaled hold keeps
// the hot sources' messages near TMax while quiet sources drop to TMin —
// where a fixed hold pays the same byte-seconds for both and two-phase's
// idle threshold reacts to silence, not to demand. Rows come ranked by
// the multi-objective fitness score under the default weights, best
// first, and aggregated trials are re-ranked by mean score; costs are
// normalized against the other rows, so the score only ranks the policies
// within this ablation.
func ablationAdaptiveDemand(seed uint64) (Table, error) {
	base := exp.Scenario{
		Regions:  []int{12, 12},
		Loss:     0.2,
		LossMode: "hash",
		Msgs:     20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		// 512-byte payloads engage the byte-currency metrics so the
		// byte-seconds objective has a real cost to score.
		PayloadBytes: 512,
		Workload:     exp.BurstyWorkload(),
	}
	policies := []string{"two-phase", "fixed", "adaptive"}
	rows := make([]exp.FitnessInput, 0, len(policies))
	for _, policy := range policies {
		sc := base
		sc.Policy = policy
		m, err := RunScenario(sc, seed)
		if err != nil {
			return Table{}, err
		}
		rows = append(rows, fitnessInput(policy, func(key string) float64 { return m[key] }))
	}
	t := Table{
		Labels: []Column{{Head: "policy", Width: -12}},
		Cols: []Column{{Head: "fitness", Width: 10, Verb: "%.3f"}, {Head: "delivery", Width: 10, Verb: "%.2f%%"},
			{Head: MKUnrecoverable, Width: 14, Verb: "%.0f"}, {Head: "recovery(ms)", Width: 13, Verb: "%.1f"},
			{Head: "buffer(B·s)", Width: 14, Verb: "%.0f"}},
		Note:   "(rows ranked by the default-weight fitness score; costs normalized within the table)",
		Ranked: true,
	}
	for _, r := range exp.Fitness(rows, exp.DefaultFitnessWeights()) {
		t.add([]string{r.Name}, r.Score, 100*r.Delivery, r.Unrecoverable, r.RecoveryMs, r.ByteSeconds)
	}
	return t, nil
}
