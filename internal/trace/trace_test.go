package trace

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestMemoryUnbounded(t *testing.T) {
	var m Memory
	for i := 0; i < 10; i++ {
		m.Emit(Event{At: time.Duration(i), Kind: Deliver})
	}
	evs := m.Events()
	if len(evs) != 10 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.At != time.Duration(i) {
			t.Fatalf("order broken: %v", evs)
		}
	}
}

func TestMemoryRing(t *testing.T) {
	m := Memory{Cap: 3}
	for i := 0; i < 7; i++ {
		m.Emit(Event{At: time.Duration(i)})
	}
	evs := m.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, want := range []time.Duration{4, 5, 6} {
		if evs[i].At != want {
			t.Fatalf("ring order: %v", evs)
		}
	}
}

func TestMemoryFilter(t *testing.T) {
	var m Memory
	m.Emit(Event{Kind: Deliver})
	m.Emit(Event{Kind: Detect})
	m.Emit(Event{Kind: Deliver})
	if got := len(m.Filter(Deliver)); got != 2 {
		t.Fatalf("Filter(Deliver) = %d", got)
	}
	if got := len(m.Filter(Crash)); got != 0 {
		t.Fatalf("Filter(Crash) = %d", got)
	}
}

// TestEventString pins the line layout — "%10.3fms node=%-4d %-12s detail"
// — at its edges: a kind longer than its column, a node wider than its
// column, no detail at all, and a kind outside the enum. The per-kind
// details are pinned against the engine's call sites in
// rrmp/allocs_test.go and cmd/rrmp-sim's trace_faults.golden.
func TestEventString(t *testing.T) {
	id := wire.MessageID{Source: 0, Seq: 3}
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{At: 1500 * time.Microsecond, Node: 7, Kind: Deliver, ID: id, Peer: 2},
			"     1.500ms node=7    DELIVER      id=0:3 from=2"},
		{Event{At: 12345678*time.Millisecond + 499*time.Nanosecond, Node: 123456, Kind: Unrecoverable, ID: id},
			"12345678.000ms node=123456 UNRECOVERABLE 0:3"},
		{Event{Node: 11, Kind: Crash}, "     0.000ms node=11   CRASH        "},
		{Event{Kind: NumKinds}, "     0.000ms node=0                 "},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestWriterTracer(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb}
	w.Emit(Event{Kind: Crash})
	w.Emit(Event{Kind: Recover})
	out := sb.String()
	if strings.Count(out, "\n") != 2 || !strings.Contains(out, "CRASH") || !strings.Contains(out, "RECOVER") {
		t.Fatalf("writer output %q", out)
	}
	if w.Err() != nil {
		t.Fatalf("Err() = %v", w.Err())
	}
}

// failAfter accepts n writes and fails every later one.
type failAfter struct {
	n      int
	writes int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestWriterKeepsFirstError: a sink that fails mid-run is not written to
// again and the failure is still there to report when the run ends.
func TestWriterKeepsFirstError(t *testing.T) {
	sink := &failAfter{n: 1}
	w := &Writer{W: sink}
	for i := 0; i < 4; i++ {
		w.Emit(Event{Kind: Deliver})
	}
	if !errors.Is(w.Err(), errDiskFull) {
		t.Fatalf("Err() = %v, want %v", w.Err(), errDiskFull)
	}
	if sink.writes != 2 {
		t.Fatalf("sink saw %d writes, want 2 (one accepted, one failed, none after)", sink.writes)
	}
}

// TestWriterEmitDoesNotAllocate: the line is rendered into the Writer's
// own buffer, so a traced run's cost is the sink's Write.
func TestWriterEmitDoesNotAllocate(t *testing.T) {
	w := &Writer{W: &failAfter{n: 1 << 30}}
	e := Event{At: 3 * time.Second, Node: 299, Kind: SearchServe, ID: wire.MessageID{Source: 4, Seq: 1 << 40}, Origin: 17, Peer: 250}
	w.Emit(e) // sizes the buffer
	if n := testing.AllocsPerRun(100, func() { w.Emit(e) }); n != 0 {
		t.Fatalf("Writer.Emit allocates %v times per event", n)
	}
}
