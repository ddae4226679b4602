package core

import (
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Benchmarks for the buffer hot path: every delivered message is one Store
// (id lookup + timer arm), every retransmission request one OnRequest, and
// each of the ~n·msgs entries in a sweep rides the idle-check/re-arm cycle.
// bench/'s workloads measure the macro effect; these isolate the index.

func benchBuffer(b *testing.B) (*sim.Sim, *Buffer) {
	b.Helper()
	s := sim.New()
	buf := NewBuffer(Config{
		Policy: NewTwoPhase(40*time.Millisecond, 6, 100, time.Minute),
		Sched:  s,
		Rng:    rng.New(1),
	})
	return s, buf
}

// BenchmarkBufferStoreEvict measures the dense index's store/idle cycle.
func BenchmarkBufferStoreEvict(b *testing.B) {
	s, buf := benchBuffer(b)
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := wire.MessageID{Source: 0, Seq: uint64(i + 1)}
		buf.Store(id, payload)
		if buf.Len() > 512 {
			s.RunFor(time.Millisecond) // let idle checks drain the window
		}
	}
}

// BenchmarkBufferOnRequest measures the request-feedback lookup (the §3.1
// implicit-feedback path: one per retransmission request received).
func BenchmarkBufferOnRequest(b *testing.B) {
	_, buf := benchBuffer(b)
	payload := make([]byte, 256)
	const live = 1024
	for i := 0; i < live; i++ {
		buf.Store(wire.MessageID{Source: 0, Seq: uint64(i + 1)}, payload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.OnRequest(wire.MessageID{Source: 0, Seq: uint64(i%live + 1)})
	}
}

// BenchmarkBufferEntries measures the ordered snapshot (leave handoff pairs
// it with rng draws; the dense index yields the order without sorting).
func BenchmarkBufferEntries(b *testing.B) {
	_, buf := benchBuffer(b)
	payload := make([]byte, 16)
	for i := 0; i < 1024; i++ {
		buf.Store(wire.MessageID{Source: 0, Seq: uint64(i + 1)}, payload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := buf.Entries(); len(got) != 1024 {
			b.Fatalf("entries %d", len(got))
		}
	}
}
