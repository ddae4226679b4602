package runner

import (
	"time"

	"repro/internal/exp"
)

// ablationVoDPrefixPush runs A7: the video-on-demand prefix-push scenario
// (one sender pushes a 60-message 1 KiB prefix over ~1.2 s; a quarter of
// the members join between 1.5 s and 2.5 s needing the entire prefix)
// under the two-phase, fixed-hold and buffer-all policies. This is the
// regime the paper's two-phase long-term set exists for: its 60 s
// long-term TTL still holds the prefix when the joiners arrive, while a
// 500 ms fixed hold has evicted it everywhere — stranding the prefix as
// unrecoverable — and buffer-all matches two-phase's reliability at a
// byte-time cost no budget would tolerate.
//
// Delivery is the survivors' ratio, late joiners included: they must
// recover the whole prefix to count. The cell is lossless, so every
// recovery episode is a late joiner pulling a prefix message, and the
// mean recovery latency is the per-message catch-up cost. The byte-time
// integral is what holding the prefix for the joiners actually cost.
func ablationVoDPrefixPush(seed uint64) (Table, error) {
	base := exp.Scenario{
		Regions: []int{12, 12},
		Msgs:    20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		Workload: exp.VoDPrefixPush(),
	}
	t := Table{
		Labels: []Column{{Head: "policy", Width: -12}},
		Cols: []Column{{Head: "delivery", Width: 10, Verb: "%.2f%%"}, {Head: MKUnrecoverable, Width: 14, Verb: "%.0f"},
			{Head: "joiners", Width: 10, Verb: "%.0f"}, {Head: "catchup(ms)", Width: 12, Verb: "%.1f"},
			{Head: "buffer(B·s)", Width: 14, Verb: "%.0f"}},
		Note: "(joiners arrive 1.5-2.5s in; only the two-phase long-term set still holds the prefix)",
	}
	for _, policy := range []string{"two-phase", "fixed", "all"} {
		sc := base
		sc.Policy = policy
		m, err := RunScenario(sc, seed)
		if err != nil {
			return Table{}, err
		}
		t.add([]string{policy}, 100*m[MKSurvivorDeliveryRatio], m[MKUnrecoverable], m[MKLateJoiners],
			m[MKMeanRecoveryMs], m[MKBufferIntegralByteSec])
	}
	return t, nil
}
