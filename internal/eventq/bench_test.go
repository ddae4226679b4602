package eventq

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// Benchmarks for the simulator's hot path: every packet delivery and every
// protocol timer is one Push (and often one Cancel) on this queue, so sweep
// throughput is bounded by these operations. BENCH_sweep.json tracks the
// macro numbers; these isolate the queue itself.

// BenchmarkSteadyStatePushPopFire measures steady-state heap traffic on
// the simulator main loop's path: a queue holding 1024 random-time events
// pushes one more and pops the earliest, per op. Random times form no runs,
// so every push takes a heap entry of its own. PopFire recycles each fired
// event, so steady state allocates nothing.
func BenchmarkSteadyStatePushPopFire(b *testing.B) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.PopFire()
	}
}

// BenchmarkTimerChurnCancel measures the cancel path the protocol leans on
// (every retransmission timer is cancelled when the awaited message
// arrives): push a random-time event into a 1024-event queue and cancel it
// through its generation-checked handle. The tombstone's slot comes back at
// the next compaction.
func BenchmarkTimerChurnCancel(b *testing.B) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Push(time.Duration(r.Intn(1_000_000)), fn)
		if !q.Cancel(e, e.Gen()) {
			b.Fatal("failed to cancel a live event")
		}
	}
}

// BenchmarkDrain measures bulk ordered consumption: push 4096 random-time
// events, pop all of them in order.
func BenchmarkDrain(b *testing.B) {
	r := rng.New(1)
	fn := func() {}
	times := make([]time.Duration, 4096)
	for i := range times {
		times[i] = time.Duration(r.Intn(1_000_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q Queue
		for _, at := range times {
			q.Push(at, fn)
		}
		for {
			if _, _, ok := q.PopFire(); !ok {
				break
			}
		}
	}
}

// BenchmarkSameInstantFanout is a multicast's delivery burst: 10 000 events
// pushed for one instant behind a 1024-event random-time backlog, then
// drained. The burst rides as one run, so each op is a link on push and a
// single root sift on pop.
func BenchmarkSameInstantFanout(b *testing.B) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Hour+time.Duration(r.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i)
		for j := 0; j < 10_000; j++ {
			q.PushKeyed(at, at, 0, fn)
		}
		for j := 0; j < 10_000; j++ {
			q.PopFire()
		}
	}
}

// BenchmarkInterleavedInstants is concurrent sources interleaving their
// deliveries: 64 instants each pushed 160 times round-robin behind a
// 1024-event random-time backlog, then drained. Each push finds its
// instant's run through the tails index, so the heap holds one entry per
// instant rather than one per event.
func BenchmarkInterleavedInstants(b *testing.B) {
	const instants, rounds = 64, 160
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Hour+time.Duration(r.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := time.Duration(i) * instants
		for j := 0; j < rounds; j++ {
			for k := time.Duration(0); k < instants; k++ {
				q.PushKeyed(base+k, base, 0, fn)
			}
		}
		for j := 0; j < instants*rounds; j++ {
			q.PopFire()
		}
	}
}
