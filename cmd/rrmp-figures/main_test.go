package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

// TestA1A5TablesMatchGolden is cmd/rrmp-figures' first test: it regenerates
// the A1 (buffering-policy cost) and A5 (λ sweep) tables in-process with a
// pinned seed and small run counts and compares them byte for byte against
// the committed golden — the same style as rrmp-sim's sweep golden test.
// The tables are pure functions of (figure, runs, seed), so any drift means
// an intentional experiment change; regenerate deliberately with:
//
//	UPDATE_FIGURES_GOLDEN=1 go test ./cmd/rrmp-figures -run A1A5
func TestA1A5TablesMatchGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "A1", 2, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "A5", 2, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "a1_a5.golden")
	if os.Getenv("UPDATE_FIGURES_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("A1/A5 tables diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestA7VoDContrast renders the A7 table and pins its point: only the
// two-phase long-term set still holds the published prefix when the late
// joiners arrive, so fixed-hold strands messages as unrecoverable and
// buffer-all pays a strictly larger byte-time bill for the same
// reliability.
func TestA7VoDContrast(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "A7", 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"two-phase", "fixed", "all", "unrecoverable"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("A7 table lacks %q:\n%s", want, buf.String())
		}
	}
	rows, err := runner.AblationVoDPrefixPush(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("A7 has %d rows, want 3", len(rows))
	}
	byPolicy := map[string]runner.VoDResult{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	two, fixed, all := byPolicy["two-phase"], byPolicy["fixed"], byPolicy["all"]
	if two.Unrecoverable != 0 || all.Unrecoverable != 0 {
		t.Fatalf("prefix-holding policies stranded messages: two-phase %v, all %v",
			two.Unrecoverable, all.Unrecoverable)
	}
	if fixed.Unrecoverable <= 0 || fixed.Delivery >= two.Delivery {
		t.Fatalf("fixed-hold kept the prefix (unrecoverable %v, delivery %v vs %v): contrast lost",
			fixed.Unrecoverable, fixed.Delivery, two.Delivery)
	}
	if all.ByteIntegral <= two.ByteIntegral {
		t.Fatalf("buffer-all byte cost %v not above two-phase %v", all.ByteIntegral, two.ByteIntegral)
	}
	if two.LateJoiners <= 0 || two.CatchupMs <= 0 {
		t.Fatalf("two-phase joiners %v catchup %v: late-join machinery idle", two.LateJoiners, two.CatchupMs)
	}
}

// TestA8AdaptiveDemand renders the A8 table and pins its shape: one row
// per policy, ranked by the default-weight fitness score, scores strictly
// non-increasing and full delivery preserved by every policy in the
// bursty cell.
func TestA8AdaptiveDemand(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "A8", 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"two-phase", "fixed", "adaptive", "fitness"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("A8 table lacks %q:\n%s", want, buf.String())
		}
	}
	rows, err := runner.AblationAdaptiveDemand(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("A8 has %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Fitness > rows[i-1].Fitness {
			t.Fatalf("rows not ranked by fitness: %v after %v", rows[i], rows[i-1])
		}
	}
	for _, r := range rows {
		if r.Delivery <= 0 {
			t.Fatalf("policy %s delivered nothing", r.Policy)
		}
		if r.ByteIntegral <= 0 {
			t.Fatalf("policy %s reports no byte cost; the fitness byte axis is dead", r.Policy)
		}
	}
}

// TestUnknownFigureRejected covers the error path.
func TestUnknownFigureRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "A99", 1, 1, 1, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
