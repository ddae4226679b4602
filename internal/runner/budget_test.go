package runner

import (
	"testing"
	"time"

	"repro/internal/exp"
)

// TestRunScenarioByteMetricsConditional pins the metric-emission contract:
// pre-axis scenarios keep exactly their historical key set (the committed
// golden reports depend on it), while payload- or budget-engaged scenarios
// add the four byte-currency keys — and respect the budget.
func TestRunScenarioByteMetricsConditional(t *testing.T) {
	base := exp.Scenario{
		Regions: []int{8},
		Loss:    0.1,
		Policy:  "two-phase",
		Msgs:    10,
		Gap:     20 * time.Millisecond,
		Horizon: 2 * time.Second,
	}
	plain, err := RunScenario(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"buffer_integral_bytesec", "peak_buffered_bytes", "pressure_evictions", "budget_denials"} {
		if _, ok := plain[key]; ok {
			t.Fatalf("pre-axis scenario leaked byte-currency key %q", key)
		}
	}

	budgeted := base
	budgeted.PayloadBytes = 1024
	budgeted.ByteBudget = 4096
	got, err := RunScenario(budgeted, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"buffer_integral_bytesec", "peak_buffered_bytes", "pressure_evictions", "budget_denials"} {
		if _, ok := got[key]; !ok {
			t.Fatalf("budgeted scenario missing byte-currency key %q", key)
		}
	}
	if got["peak_buffered_bytes"] > 4096 {
		t.Fatalf("peak_buffered_bytes %.0f exceeds the 4096 B budget", got["peak_buffered_bytes"])
	}
	if got["pressure_evictions"] == 0 {
		t.Fatal("a 4 KB budget under a 10 KB workload produced no pressure evictions")
	}
	if got["bytes_sent"] <= plain["bytes_sent"] {
		t.Fatalf("1 KB payloads sent %.0f B on the wire vs %.0f B at 256 B; payload size did not reach the network",
			got["bytes_sent"], plain["bytes_sent"])
	}

	// The byte integral is the occupancy integral priced in bytes: with a
	// fixed 1 KB payload but no budget it must be exactly 1024× the
	// message integral.
	unbudgeted := base
	unbudgeted.PayloadBytes = 1024
	free, err := RunScenario(unbudgeted, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgSec, byteSec := free["buffer_integral_msgsec"], free["buffer_integral_bytesec"]
	if byteSec < 1023.9*msgSec || byteSec > 1024.1*msgSec {
		t.Fatalf("fixed 1 KB payload: byte integral %.1f is not 1024× the message integral %.1f", byteSec, msgSec)
	}
}

// TestRunScenarioPayloadModelDeterministic pins that randomized payload
// models draw from their own stream: two runs with the same seed agree,
// and the model leaves the legacy metrics' determinism intact.
func TestRunScenarioPayloadModelDeterministic(t *testing.T) {
	sc := exp.Scenario{
		Regions:      []int{8},
		Loss:         0.1,
		Policy:       "two-phase",
		Msgs:         10,
		Gap:          20 * time.Millisecond,
		Horizon:      2 * time.Second,
		PayloadBytes: 1024,
		PayloadModel: "lognormal",
	}
	a, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("metric key sets differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("metric %q differs across identically seeded runs: %v vs %v", k, v, b[k])
		}
	}
	sizes1, _, err := payloadSizesFor("lognormal", 1024, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	sizes2, _, err := payloadSizesFor("lognormal", 1024, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for i := range sizes1 {
		if sizes1[i] != sizes2[i] {
			t.Fatalf("payload draw %d differs for one seed: %d vs %d", i, sizes1[i], sizes2[i])
		}
		if sizes1[i] != sizes1[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("lognormal payload model drew a constant size sequence")
	}
	if _, _, err := payloadSizesFor("zipf", 1024, 10, 7); err == nil {
		t.Fatal("unknown payload model accepted")
	}
}
