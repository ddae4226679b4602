package exp

import (
	"testing"
)

// TestParseFitnessWeights pins the weight grammar: empty → defaults,
// partial specs override only their keys, malformed specs error.
func TestParseFitnessWeights(t *testing.T) {
	w, err := ParseFitnessWeights("")
	if err != nil || w != DefaultFitnessWeights() {
		t.Fatalf("empty spec = %+v, %v; want defaults", w, err)
	}
	w, err = ParseFitnessWeights("bytesec=0.5, unrec=0")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultFitnessWeights()
	want.ByteSeconds, want.Unrecoverable = 0.5, 0
	if w != want {
		t.Fatalf("partial spec = %+v, want %+v", w, want)
	}
	for _, bad := range []string{"delivery", "delivery=x", "delivery=-1", "bogus=1"} {
		if _, err := ParseFitnessWeights(bad); err == nil {
			t.Fatalf("ParseFitnessWeights(%q) accepted a malformed spec", bad)
		}
	}
}

// TestFitnessScoring pins the score formula and the ranking: delivery is
// raw, each cost normalizes against the set maximum, zero-cost objectives
// contribute nothing, and rows return best-first with name tie-breaks.
func TestFitnessScoring(t *testing.T) {
	w := FitnessWeights{Delivery: 1, ByteSeconds: 0.5, Unrecoverable: 0.25, RecoveryMs: 0.25}
	rows := Fitness([]FitnessInput{
		{Name: "cheap", Delivery: 0.9, ByteSeconds: 100, Unrecoverable: 0, RecoveryMs: 10},
		{Name: "greedy", Delivery: 1.0, ByteSeconds: 400, Unrecoverable: 0, RecoveryMs: 20},
	}, w)
	// cheap:  1·0.9 − 0.5·(100/400) − 0.25·0 − 0.25·(10/20) = 0.65
	// greedy: 1·1.0 − 0.5·1        − 0.25·0 − 0.25·1       = 0.25
	if rows[0].Name != "cheap" || rows[1].Name != "greedy" {
		t.Fatalf("ranking = %s, %s; want cheap first", rows[0].Name, rows[1].Name)
	}
	if rows[0].Score != 0.65 || rows[1].Score != 0.25 {
		t.Fatalf("scores = %v, %v; want 0.65, 0.25", rows[0].Score, rows[1].Score)
	}
	// Unrecoverable had max 0, so its weight never subtracted anywhere.
	// Ties rank by name ascending for deterministic output.
	tied := Fitness([]FitnessInput{
		{Name: "b", Delivery: 1}, {Name: "a", Delivery: 1},
	}, w)
	if tied[0].Name != "a" || tied[1].Name != "b" {
		t.Fatalf("tie order = %s, %s; want a, b", tied[0].Name, tied[1].Name)
	}
	if tied[0].Score != 1 {
		t.Fatalf("zero-cost score = %v, want pure delivery 1", tied[0].Score)
	}
}
