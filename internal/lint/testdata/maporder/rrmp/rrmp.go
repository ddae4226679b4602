// Package rrmp is the maporder fixture: order-sensitive bodies inside
// range-over-map loops, plus the sanctioned collect-then-sort pattern and
// the deliberate-exception annotation.
package rrmp

import (
	"sort"

	"maporderfix/clock"
	"maporderfix/eventq"
	"maporderfix/netsim"
	"maporderfix/rng"
	"maporderfix/sim"
)

// DrawPerMember draws once per member in map order: the stream consumes
// values in randomized order, so the run depends on the hash seed.
func DrawPerMember(src *rng.Source, members map[int]bool) int {
	total := 0
	for id := range members {
		total += src.Intn(8) // want "rng draw \\(Intn\\) inside range over map"
		_ = id
	}
	return total
}

// SplitInLoop is clean even in map order: Split derives a child from the
// label alone, so call order cannot matter.
func SplitInLoop(src *rng.Source, members map[int]bool) {
	for id := range members {
		_ = src.Split(uint64(id))
	}
}

// ScheduleAll posts one event per member in map order: same-timestamp ties
// run in insertion order, so the schedule leaks the hash seed.
func ScheduleAll(eng *sim.Engine, members map[int]bool) {
	for id := range members {
		id := id
		eng.At(0, func() { _ = id }) // want "event posting \\(sim\\.At\\) inside range over map"
	}
}

// CollectUnsorted appends map keys to an escaping slice without sorting.
func CollectUnsorted(members map[int]bool) []int {
	var ids []int
	for id := range members {
		ids = append(ids, id) // want "append to ids"
	}
	return ids
}

// CollectSorted is the sanctioned fix, recognized automatically: collect,
// then sort in the same block.
func CollectSorted(members map[int]bool) []int {
	ids := make([]int, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// LocalAppend is clean: the slice is declared inside the loop body and
// dies with the iteration, so its order cannot escape.
func LocalAppend(members map[int][]int) int {
	n := 0
	for _, vs := range members {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// Allowed is deliberately order-insensitive and says so.
func Allowed(eng *sim.Engine, members map[int]bool) {
	for id := range members {
		id := id
		//lint:allow maporder -- events land at distinct times keyed by id, so enqueue order cannot matter
		eng.At(int64(id), func() { _ = id })
	}
}

// SliceRange is clean: only map iteration order is randomized.
func SliceRange(eng *sim.Engine, members []int) {
	for _, id := range members {
		id := id
		eng.At(0, func() { _ = id })
	}
}

// PostEach reaches every scheduling call the analyzer lists, each in map
// order: the engine's posts, the network's sends, the queue's pushes and a
// timer's arms.
func PostEach(eng *sim.Engine, net *netsim.Network, q *eventq.Queue, a clock.Armer, hs map[int]*clock.Handle) {
	for id, h := range hs {
		fn := func() {}
		f := clock.Func(fn)
		eng.Post(fn)                      // want "event posting \\(sim\\.Post\\) inside range over map"
		eng.PostN(0, int32(id), 1, 3, f)  // want "event posting \\(sim\\.PostN\\) inside range over map"
		eng.PostFrom(0, int32(id), 1, fn) // want "event posting \\(sim\\.PostFrom\\) inside range over map"
		net.Unicast(0, id)                // want "event posting \\(netsim\\.Unicast\\) inside range over map"
		net.Multicast(0, []int{id})       // want "event posting \\(netsim\\.Multicast\\) inside range over map"
		q.PushKeyed(1, 0, 0, fn)          // want "event posting \\(eventq\\.PushKeyed\\) inside range over map"
		q.PushN(1, 0, 0, 2, f)            // want "event posting \\(eventq\\.PushN\\) inside range over map"
		h.Arm(a, 1, f)                    // want "event posting \\(clock\\.Arm\\) inside range over map"
		a.ArmAfter(1, f)                  // want "event posting \\(clock\\.ArmAfter\\) inside range over map"
		_ = net.Sent() + q.Len()          // read-only accessors of the same types are clean
		_ = h.Armed()
	}
}
