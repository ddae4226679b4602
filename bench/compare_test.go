package main

import (
	"io"
	"strings"
	"testing"
)

func testRecord(mut func(*recordFile)) recordFile {
	r := recordFile{
		Schema: schema, Kind: "run",
		Env: envInfo{NProc: 2, W: 2, GOGC: "100", GoVersion: "go1.24.0", Commit: "abc", Seed: 1, Seconds: 15},
		Workloads: []workloadResult{
			{Name: wlStream10k, SimDigest: "d-stream", Metrics: map[string]float64{
				mSetupS: 0.02, mRunS: 10, mDeliveriesPerS: 1000, mPeakRSSMB: 100,
				mDeliveryRatio: 1, mBufferMsgS: 500, mFailedFrac: 0,
			}},
			{Name: wlPressure300, SimDigest: "d-pressure", Metrics: map[string]float64{
				mSetupS: 0.001, mRunS: 10, mDeliveriesPerS: 1000, mPeakRSSMB: 20,
				mDeliveryRatio: 0.9988, mRecoveryMs: 37, mBufferMsgS: 18000, mFailedFrac: 0,
			}},
		},
	}
	if mut != nil {
		mut(&r)
	}
	return r
}

func TestCompareDirectionAndBound(t *testing.T) {
	set := func(workload int, metric string, v float64) func(*recordFile) {
		return func(r *recordFile) { r.Workloads[workload].Metrics[metric] = v }
	}
	for _, c := range []struct {
		name string
		mut  func(*recordFile)
		ok   bool
	}{
		{"identical", nil, true},
		{"run_s 24% slower is inside 25%", set(0, mRunS, 12.4), true},
		{"run_s 26% slower", set(0, mRunS, 12.6), false},
		{"run_s much faster", set(0, mRunS, 5), true},
		{"deliveries_per_s 26% lower", set(0, mDeliveriesPerS, 740), false},
		{"deliveries_per_s 26% higher", set(0, mDeliveriesPerS, 1260), true},
		{"setup_s 24% slower is inside 25%", set(1, mSetupS, 0.00124), true},
		{"setup_s 26% slower", set(1, mSetupS, 0.00126), false},
		{"peak_rss_mb 26% higher", set(0, mPeakRSSMB, 126), false},
		{"delivery_ratio 0.001 lower is inside 0.002 abs", set(1, mDeliveryRatio, 0.9978), true},
		{"delivery_ratio 0.003 lower", set(1, mDeliveryRatio, 0.9958), false},
		{"recovery_ms 6% higher", set(1, mRecoveryMs, 39.3), false},
		{"buffer_msg_s 16% higher", set(1, mBufferMsgS, 20900), false},
		{"buffer_msg_s lower is better", set(1, mBufferMsgS, 9000), true},
		{"any failure", set(0, mFailedFrac, 0.1), false},
		{"a metric vanished", func(r *recordFile) { delete(r.Workloads[1].Metrics, mRecoveryMs) }, false},
	} {
		ok, err := compareRecords(io.Discard, []recordFile{testRecord(nil)}, []recordFile{testRecord(c.mut)}, false)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if ok != c.ok {
			t.Errorf("%s: within bounds = %v, want %v", c.name, ok, c.ok)
		}
	}
}

func TestCompareDeclaredGapIsNotMissing(t *testing.T) {
	var out strings.Builder
	ok, err := compareRecords(&out, []recordFile{testRecord(nil)}, []recordFile{testRecord(nil)}, false)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !strings.Contains(out.String(), "declared gap") {
		t.Errorf("stream10k's recovery_ms gap is not declared in:\n%s", out.String())
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	for name, mut := range map[string]func(*recordFile){
		"nproc":   func(r *recordFile) { r.Env.NProc = 8 },
		"W":       func(r *recordFile) { r.Env.W = 4 },
		"go":      func(r *recordFile) { r.Env.GoVersion = "go1.25.0" },
		"seed":    func(r *recordFile) { r.Env.Seed = 2 },
		"seconds": func(r *recordFile) { r.Env.Seconds = 30 },
	} {
		if _, err := compareRecords(io.Discard, []recordFile{testRecord(nil)}, []recordFile{testRecord(mut)}, false); err == nil {
			t.Errorf("%s mismatch was compared", name)
		}
	}
	// A different commit is the whole point of comparing.
	other := testRecord(func(r *recordFile) { r.Env.Commit = "def" })
	if ok, err := compareRecords(io.Discard, []recordFile{testRecord(nil)}, []recordFile{other}, false); err != nil || !ok {
		t.Errorf("different commits: ok=%v err=%v", ok, err)
	}
}

func TestCompareSimDigest(t *testing.T) {
	changed := testRecord(func(r *recordFile) { r.Workloads[0].SimDigest = "other" })
	if ok, _ := compareRecords(io.Discard, []recordFile{testRecord(nil)}, []recordFile{changed}, false); ok {
		t.Error("a sim_digest difference passed")
	}
	if ok, _ := compareRecords(io.Discard, []recordFile{testRecord(nil)}, []recordFile{changed}, true); !ok {
		t.Error("-allow-sim-change did not downgrade the digest row")
	}
}

func TestCompareSeveralRunsUseMedians(t *testing.T) {
	runS := func(v float64) recordFile {
		return testRecord(func(r *recordFile) { r.Workloads[0].Metrics[mRunS] = v })
	}
	base := []recordFile{runS(10), runS(10.1), runS(9.9)}
	// One slow outlier among the candidates does not move their median.
	cand := []recordFile{runS(10), runS(14), runS(10.2)}
	var out strings.Builder
	ok, err := compareRecords(&out, base, cand, false)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "quartiles") {
		t.Errorf("several runs per side must print quartiles:\n%s", out.String())
	}
	if ok, _ := compareRecords(io.Discard, base, []recordFile{runS(13), runS(14), runS(10.9)}, false); ok {
		t.Error("a 30% slower median passed")
	}
}
