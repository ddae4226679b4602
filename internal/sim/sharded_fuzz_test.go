package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
)

// The shard-merge differential harness: a synthetic event program — a pure
// function of the fuzz input — runs once on the serial engine and once on
// the sharded engine (one node per shard, so every cross-node interaction
// is a cross-shard interaction). Every event carries the extended ordering
// key the sharded engine sorts by: (at, pushAt, src) plus per-context push
// order. The oracle asserts the engine's documented merge contract against
// the serial timeline — same-tick ties, zero-delay same-shard chains and
// barrier-edge timestamps included:
//
//  1. every lane executes exactly the serial run's events for that lane,
//     with identical (at, pushAt, src) keys (nothing lost, duplicated, or
//     time-shifted);
//  2. each lane's execution order is nondecreasing in the extended key, so
//     wherever keys differ the serial (time, insertion) order is
//     reproduced exactly;
//  3. inside a full-key tie group, one parent's pushes keep their push
//     order (per-context insertion order is preserved);
//  4. a second sharded run produces bitwise-identical per-lane logs
//     (goroutine scheduling never leaks into the merge).
//
// A child may be a counted post (PostN of n firings). The serial run, the
// oracle, posts it as n consecutive single posts, so (1)-(4) also hold a
// counted event's firings to n single events of consecutive push order:
// none lost, none added, and no other event fired between them that the
// single posts would not have let in.
//
// Pushes from *different* contexts at identical (at, pushAt) order by the
// fixed context index rather than the serial global sequence — the one
// documented divergence (see the package comment in sharded.go); the
// runner-level differential suite proves it never changes protocol bytes.
// This harness proves the merge machinery deterministic and key-faithful.

// mergeW is the harness lookahead bound. Delay classes below deliberately
// include exactly mergeW and exact multiples (barrier-edge timestamps).
const mergeW = 10 * time.Millisecond

const (
	mergeMaxRoots = 16
	mergeMaxDepth = 5
)

// mergeProg is a parsed fuzz input.
type mergeProg struct {
	shards int
	seed   uint64
	roots  []mergeRoot
}

// mergeRoot is one driver-scheduled (global-lane) seed event.
type mergeRoot struct {
	at time.Duration
}

// evrec is one fired event: its structural label (engine-independent),
// which firing of its post it is, and the extended key its push carried.
type evrec struct {
	label  uint64
	firing int
	at     time.Duration
	pushAt time.Duration
	src    int32
	lane   int32 // executing lane; -1 = coordinator/global
}

// mergeEngine abstracts the two engines for the shared program driver.
type mergeEngine interface {
	at(at time.Duration, fn func())
	// post schedules n firings, fire(0) … fire(n-1) in that order.
	post(from, to int32, d time.Duration, n int, fire func(k int))
	run()
}

// singles is the oracle's post: n single posts in a row.
func singles(post func(fn func()), n int, fire func(k int)) {
	for k := range n {
		post(func() { fire(k) })
	}
}

// counted is one callback for n firings: its k-th call is fire(k).
func counted(fire func(k int)) func() {
	k := 0
	return func() {
		k++
		fire(k - 1)
	}
}

type serialMergeEngine struct{ s *Sim }

func (e serialMergeEngine) at(at time.Duration, fn func()) { e.s.At(at, fn) }
func (e serialMergeEngine) post(_, _ int32, d time.Duration, n int, fire func(k int)) {
	singles(func(fn func()) { e.s.Post(d, fn) }, n, fire)
}
func (e serialMergeEngine) run() { e.s.RunUntil(-1) }

type shardedMergeEngine struct{ e *Sharded }

func (e shardedMergeEngine) at(at time.Duration, fn func()) { e.e.At(at, fn) }
func (e shardedMergeEngine) post(from, to int32, d time.Duration, n int, fire func(k int)) {
	if n == 1 {
		e.e.PostFrom(from, to, d, func() { fire(0) })
		return
	}
	e.e.PostN(from, to, d, n, clock.Func(counted(fire)))
}
func (e shardedMergeEngine) run() { e.e.RunUntil(-1) }

// laneTimerMergeEngine schedules through the lanes' own schedulers wherever
// a protocol member's timer could be armed — roots during setup, and every
// push from a barrier or onto the pushing lane — by After or by
// clock.Handle, one timer per firing; cross-shard pushes from a lane still
// go through PostN.
type laneTimerMergeEngine struct {
	e      *Sharded
	handle bool
}

func (e laneTimerMergeEngine) schedule(lane int32, d time.Duration, fn func()) {
	if e.handle {
		var h clock.Handle
		h.Arm(e.e.Clock(lane), d, clock.Func(fn))
		return
	}
	e.e.Clock(lane).After(d, fn)
}

// at is only called during setup, when the clock reads zero.
func (e laneTimerMergeEngine) at(at time.Duration, fn func()) { e.schedule(0, at, fn) }
func (e laneTimerMergeEngine) post(from, to int32, d time.Duration, n int, fire func(k int)) {
	if from >= 0 && from != to {
		e.e.PostN(from, to, d, n, clock.Func(counted(fire)))
		return
	}
	singles(func(fn func()) { e.schedule(to, d, fn) }, n, fire)
}
func (e laneTimerMergeEngine) run() { e.e.RunUntil(-1) }

// mix is the splitmix64 finalizer: the program's behavior generator.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// runMergeProg drives prog on eng. Each fired event appends to its
// executing lane's log — logs[lane+1], a dense slice-of-slices rather
// than a map, because concurrent lane goroutines appending under -race
// must touch disjoint slice headers, and even distinct-key map writes
// share the map — and schedules 0–2 children whose targets and delays
// are a pure function of (prog.seed, label) — identical on both engines.
// Labels encode the tree path in base 4, so they are engine-independent
// too. Branching ≤ 2 and depth ≤ mergeMaxDepth bound the program
// structurally (no runtime event cap that could bite engines in different
// orders). A child whose hash picks it is a counted post of 2–3 firings.
// Index 0 is the coordinator's (lane -1) log.
func runMergeProg(eng mergeEngine, prog mergeProg) [][]evrec {
	logs := make([][]evrec, prog.shards+1)
	var fire func(r evrec, depth int)
	schedule := func(parentLabel uint64, from int32, now time.Duration, depth int) {
		if depth >= mergeMaxDepth {
			return
		}
		h := mix(prog.seed ^ (parentLabel * 0x9e3779b97f4a7c15))
		nc := int(h % 3)
		for i := 0; i < nc; i++ {
			hi := mix(h + uint64(i)*0xbf58476d1ce4e5b9)
			to := int32(hi % uint64(prog.shards))
			var d time.Duration
			switch (hi >> 8) % 6 {
			case 0:
				// Zero-delay chain (from a lane it must stay same-shard:
				// a cross-shard zero delay violates the lookahead bound).
				d = 0
				if from >= 0 {
					to = from
				}
			case 1:
				d = time.Millisecond
				if from >= 0 {
					to = from
				}
			case 2:
				d = mergeW // barrier-edge: exactly the lookahead bound
			case 3:
				d = mergeW + time.Millisecond
			case 4:
				d = 2 * mergeW // a later barrier's exact boundary
			case 5:
				d = mergeW + time.Duration((hi>>16)%8)*time.Millisecond
			}
			if from < 0 {
				// Coordinator context (a root firing at a barrier): any
				// delay is legal, including sub-lookahead ones.
				if (hi>>24)%2 == 0 {
					d = time.Duration((hi>>32)%8) * time.Millisecond
				}
			} else if to != from && d < mergeW {
				d = mergeW
			}
			// The child's push key, exactly as PostFrom assigns it: the
			// event lands at now+d, pushed at the parent's firing instant,
			// from the parent's context (coordinatorSrc for roots). The
			// label appends the child index as a base-4 path digit, so
			// labels are globally unique (roots live above bit 40).
			child := evrec{
				label:  parentLabel*4 + 1 + uint64(i),
				at:     now + d,
				pushAt: now,
				src:    from,
				lane:   to,
			}
			n := 1
			if (hi>>48)%3 == 0 {
				n = 2 + int(hi>>50)%2
			}
			eng.post(from, to, d, n, fireClosure(&fire, child, depth+1))
		}
	}
	fire = func(r evrec, depth int) {
		logs[r.lane+1] = append(logs[r.lane+1], r)
		// A counted post's first firing schedules its children (labels
		// name tree paths, so one parent label has one set of children);
		// a zero-delay child lands between that firing and the next.
		if r.firing == 0 {
			schedule(r.label, r.lane, r.at, depth)
		}
	}
	for i, r := range prog.roots {
		label := uint64(i+1) << 40
		r := r
		eng.at(r.at, func() {
			// Roots run on the coordinator (serial: the driver's own
			// events), pushed during setup: key (at, insertion order).
			logs[0] = append(logs[0], evrec{label: label, at: r.at, src: coordinatorSrc, lane: -1})
			// Their children are barrier-context pushes from src -1.
			schedule(label, coordinatorSrc, r.at, 0)
		})
	}
	eng.run()
	return logs
}

// fireClosure breaks the schedule/fire mutual recursion without capturing
// loop variables by reference; its k-th firing logs r as firing k.
func fireClosure(fire *func(evrec, int), r evrec, depth int) func(k int) {
	return func(k int) {
		r := r
		r.firing = k
		(*fire)(r, depth)
	}
}

// keyLess orders two records by the extended key (at, pushAt, src).
func keyLess(a, b evrec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pushAt != b.pushAt {
		return a.pushAt < b.pushAt
	}
	return a.src < b.src
}

func keyEq(a, b evrec) bool {
	return a.at == b.at && a.pushAt == b.pushAt && a.src == b.src
}

// mergeParent decodes a label's parent and child index; roots (labels with
// empty base-4 path bits) report ok=false.
func mergeParent(label uint64) (parent uint64, idx int, ok bool) {
	if label&((1<<40)-1) == 0 {
		return 0, 0, false
	}
	idx = int((label - 1) % 4)
	return (label - 1 - uint64(idx)) / 4, idx, true
}

// checkMergeProg runs prog on both engines and asserts the documented
// merge contract (see the file comment): per-lane sets and keys match the
// serial timeline, lanes pop in extended-key order, per-context insertion
// order survives inside tie groups, and the merge is scheduling-
// independent.
func checkMergeProg(t *testing.T, prog mergeProg) {
	t.Helper()

	serial := runMergeProg(serialMergeEngine{New()}, prog)

	shardedRun := func() [][]evrec {
		t.Helper()
		nodeShard := make([]int32, prog.shards)
		for i := range nodeShard {
			nodeShard[i] = int32(i)
		}
		sh, err := NewSharded(prog.shards, nodeShard, mergeW)
		if err != nil {
			t.Fatal(err)
		}
		return runMergeProg(shardedMergeEngine{sh}, prog)
	}
	sharded := shardedRun()

	for lane := int32(-1); lane < int32(prog.shards); lane++ {
		got := sharded[lane+1]
		want := append([]evrec(nil), serial[lane+1]...)
		if len(got) != len(want) {
			t.Fatalf("lane %d: sharded fired %d events, serial timeline has %d", lane, len(got), len(want))
		}

		// (2) The lane pops in nondecreasing extended-key order.
		for i := 1; i < len(got); i++ {
			if keyLess(got[i], got[i-1]) {
				t.Fatalf("lane %d: event %d (label %d, key %v/%v/%d) popped after a greater key",
					lane, i, got[i].label, got[i].at, got[i].pushAt, got[i].src)
			}
		}

		// (1) Key-sorted, the two timelines must agree group by group:
		// identical key boundaries and identical label sets inside each
		// full-key tie group. Where keys are strict this forces exact
		// serial (time, insertion) order; inside a tie group the order is
		// the engine's documented context-index fallback.
		sort.SliceStable(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
		sorted := append([]evrec(nil), got...)
		sort.SliceStable(sorted, func(i, j int) bool { return keyLess(sorted[i], sorted[j]) })
		for g := 0; g < len(want); {
			end := g + 1
			for end < len(want) && keyEq(want[end], want[g]) {
				end++
			}
			gotSet := make(map[uint64]int, end-g)
			for i := g; i < end; i++ {
				if !keyEq(sorted[i], want[i]) {
					t.Fatalf("lane %d: key group %v/%v/%d missing from the sharded run",
						lane, want[i].at, want[i].pushAt, want[i].src)
				}
				gotSet[sorted[i].label]++
			}
			for i := g; i < end; i++ {
				if gotSet[want[i].label] == 0 {
					t.Fatalf("lane %d: label %d (at %v) absent from its sharded tie group",
						lane, want[i].label, want[i].at)
				}
				gotSet[want[i].label]--
			}
			g = end
		}

		// (3) Inside each tie group of the sharded order, one parent's
		// pushes must keep their child-index (push) order.
		for g := 0; g < len(got); {
			end := g + 1
			for end < len(got) && keyEq(got[end], got[g]) {
				end++
			}
			lastIdx := make(map[uint64]int, end-g)
			for i := g; i < end; i++ {
				if parent, idx, ok := mergeParent(got[i].label); ok {
					if prev, seen := lastIdx[parent]; seen && idx < prev {
						t.Fatalf("lane %d: parent %d's push order inverted inside tie group at %v",
							lane, parent, got[i].at)
					} else if !seen || idx > prev {
						lastIdx[parent] = idx
					}
				}
			}
			g = end
		}
	}

	// (4) Scheduling independence: a re-run must be bitwise identical.
	again := shardedRun()
	for lane := int32(-1); lane < int32(prog.shards); lane++ {
		a, b := sharded[lane+1], again[lane+1]
		if len(a) != len(b) {
			t.Fatalf("lane %d: re-run fired %d events, first run %d", lane, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("lane %d event %d: re-run fired label %d, first run label %d — merge depends on goroutine scheduling",
					lane, i, b[i].label, a[i].label)
			}
		}
	}
}

// parseMergeProg decodes a fuzz input: shard count, behavior seed, then
// 2-byte root specs (time-in-ms, node). Duplicate root times are likely by
// construction — that is the point (same-tick ties on the global lane).
func parseMergeProg(data []byte) (mergeProg, bool) {
	if len(data) < 11 {
		return mergeProg{}, false
	}
	prog := mergeProg{
		shards: 2 + int(data[0]%3),
		seed:   binary.LittleEndian.Uint64(data[1:9]),
	}
	rest := data[9:]
	for len(rest) >= 2 && len(prog.roots) < mergeMaxRoots {
		// Millisecond grid plus a sub-millisecond offset: root times land
		// on, just before, and just after lookahead barrier boundaries.
		at := time.Duration(rest[0]%32)*time.Millisecond +
			time.Duration(rest[1]%10)*100*time.Microsecond
		prog.roots = append(prog.roots, mergeRoot{at: at})
		rest = rest[2:]
	}
	return prog, len(prog.roots) > 0
}

// FuzzShardMerge feeds arbitrary cross-shard event timelines through both
// engines and requires the sharded merge to reproduce the serial (time,
// insertion) order on every lane.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 2, 5, 3})
	f.Add([]byte{0, 42, 0, 0, 0, 0, 0, 0, 0, 10, 0, 10, 1, 20, 0, 20, 1, 30, 2})
	f.Add([]byte{1, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, ok := parseMergeProg(data)
		if !ok {
			t.Skip()
		}
		checkMergeProg(t, prog)
	})
}

// TestShardMergeDeterministic pins hand-built timelines that target the
// known traps: same-tick root ties, zero-delay chains, events landing
// exactly on lookahead barrier boundaries, and pushes a lane queue's run
// tail must refuse.
func TestShardMergeDeterministic(t *testing.T) {
	cases := []mergeProg{
		// Same-tick ties: every root at t=0.
		{shards: 4, seed: 7, roots: []mergeRoot{{0}, {0}, {0}, {0}}},
		// Barrier-edge cascade: roots at exact multiples of the lookahead.
		{shards: 3, seed: 99, roots: []mergeRoot{{0}, {mergeW}, {2 * mergeW}, {2 * mergeW}}},
		// Dense tie pile-up between two shards.
		{shards: 2, seed: 0xdeadbeef, roots: []mergeRoot{
			{5 * time.Millisecond}, {5 * time.Millisecond},
			{5 * time.Millisecond}, {15 * time.Millisecond}}},
		// Two interleaved instants, chains crossing shards: a barrier push
		// joins a lane's run, and drained outbox pushes reach an instant
		// whose lane-local run has a higher key, so its tail refuses them.
		{shards: 2, seed: 250, roots: []mergeRoot{
			{12 * time.Millisecond}, {17 * time.Millisecond},
			{12 * time.Millisecond}, {17 * time.Millisecond}}},
		// A barrier push and a lane's cross-shard push tie on (at, pushAt)
		// at the same lane: only the coordinator's src orders them.
		{shards: 2, seed: 54, roots: []mergeRoot{
			{12 * time.Millisecond}, {17 * time.Millisecond},
			{12 * time.Millisecond}, {17 * time.Millisecond}}},
	}
	for i, prog := range cases {
		prog := prog
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) { checkMergeProg(t, prog) })
	}
	// A lane timer — armed during setup, at a barrier or inside a window —
	// carries exactly the keys PostFrom gives the same push, by After's
	// Timer and by clock.Handle alike, so every lane fires the same log.
	for i, prog := range cases {
		prog := prog
		t.Run(fmt.Sprintf("lane-timers/case%d", i), func(t *testing.T) {
			engine := func() *Sharded {
				nodeShard := make([]int32, prog.shards)
				for i := range nodeShard {
					nodeShard[i] = int32(i)
				}
				e, err := NewSharded(prog.shards, nodeShard, mergeW)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want := runMergeProg(shardedMergeEngine{engine()}, prog)
			for _, handle := range []bool{false, true} {
				if got := runMergeProg(laneTimerMergeEngine{engine(), handle}, prog); !reflect.DeepEqual(got, want) {
					t.Fatalf("lane timers (handle=%v) fired a different log from PostFrom's", handle)
				}
			}
		})
	}
}
