package runner

import (
	"testing"

	"repro/internal/exp"
)

// TestFitnessFromCells pins the metric extraction: objective values come
// from the registered keys' aggregate means, and a metric a cell never
// reported contributes zero rather than failing.
func TestFitnessFromCells(t *testing.T) {
	cells := []exp.Cell{
		{Name: "full", Aggregate: exp.Aggregate{Metrics: []exp.MetricSummary{
			{Name: MKDeliveryRatio, Mean: 0.8},
			{Name: MKBufferIntegralByteSec, Mean: 200},
			{Name: MKUnrecoverable, Mean: 2},
			{Name: MKMeanRecoveryMs, Mean: 5},
		}}},
		{Name: "sparse", Aggregate: exp.Aggregate{Metrics: []exp.MetricSummary{
			{Name: MKDeliveryRatio, Mean: 1.0},
		}}},
	}
	rows := SweepFitness(exp.Report{Cells: cells}, exp.DefaultFitnessWeights())
	if len(rows) != 2 || rows[0].Name != "sparse" {
		t.Fatalf("rows = %+v; want sparse ranked first (it pays no cost)", rows)
	}
	if rows[0].Score != 1 {
		t.Fatalf("sparse score = %v, want 1 (absent metrics contribute 0)", rows[0].Score)
	}
	w := exp.DefaultFitnessWeights()
	wantFull := w.Delivery*0.8 - w.ByteSeconds*1 - w.Unrecoverable*1 - w.RecoveryMs*1
	if rows[1].Score != wantFull {
		t.Fatalf("full score = %v, want %v", rows[1].Score, wantFull)
	}
}
