package core

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// FuzzIndexDifferential drives the dense index and the map oracle
// (reference_test.go) through one byte-decoded script of puts and removes
// and requires them to agree after every op: get on every id ever put,
// size, the sorted snapshot and the pressure victim under every
// registered policy's displacement order (diffPolicies), which see every
// put and touch as a store and a request. The window and source table the
// index is built of are wire's, whose layout FuzzSourceWindows pins.
//
// The same puts and removes store and evict at a Buffer while simulated
// time advances by an op-dependent odd step. After every op, and after a
// final Close, the buffer's occupancy integral must equal the exact sum of
// its copies' residences (each weighted by its payload for the byte
// integral), and the float integrator it replaced (floatOccupancy) must
// agree within its rounding bound.
func FuzzIndexDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 4, 1, 0, 2, 5, 6, 7, 200})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 2, 0, 2, 1, 0, 7, 90, 3, 3, 3, 2, 2, 0})
	f.Add([]byte{8, 16, 0, 7, 40, 15, 99, 23, 77, 4, 1, 12, 3, 2, 3, 14, 0, 22, 0})
	// The first source is 2, held in the inline slot; sources 1 and 0
	// arrive after it and sort before it.
	f.Add([]byte{16, 0, 16, 1, 16, 2, 8, 3, 16, 4, 0, 5, 8, 6, 19, 16, 7, 11, 0, 8, 22, 16, 9})
	f.Add([]byte{16, 0, 8, 1, 0, 2, 17, 40, 16, 3, 9, 50, 0, 4, 21, 7, 16, 5, 8, 6, 0, 7})
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		script := make([]byte, 400)
		for i := range script {
			script[i] = byte(r.Uint64())
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			t.Skip() // every op checks every id: cost is quadratic in length
		}
		runIndexScript(t, script)
	})
}

// Script ops. An op byte's low three bits pick the op and the next bits
// the source (0..2); ops that need an operand read the following byte (0
// once the script is exhausted).
const (
	opPutNext   = iota // put the source's next sequence number
	opPutNear          // put near the window: below it (prepend), inside a gap or just past it
	opPutFar           // put well past the window (a gap the window must grow over)
	opRemoveMin        // remove the source's lowest live entry (front trim)
	opRemoveAny        // remove a live entry picked by the operand
	opTouch            // change a live entry's idle time or promote it (moves the victim)
	opDrain            // remove every live entry of the source (the window empties)
	opPutNext2         // as opPutNext: in-order puts dominate real buffers
)

func runIndexScript(t *testing.T, script []byte) {
	t.Helper()
	dense := new(denseIndex)
	oracle := &mapIndex{entries: make(map[wire.MessageID]*Entry)}
	mk := diffPolicies()
	names := slices.Sorted(maps.Keys(mk))
	policies := make([]Policy, len(names))
	for i, name := range names {
		policies[i] = mk[name]()
	}
	s := sim.New()
	buf := NewBuffer(Config{Policy: BufferAll{}, Sched: s}) // no timers: only the script evicts
	var (
		payload [256]byte
		held    = map[wire.MessageID]heldCopy{} // the buffer's live copies
		closed  [2]int64                        // residences of evicted copies
		float   floatOccupancy
		levels  = func() [2]float64 { return [2]float64{float64(buf.Len()), float64(buf.Bytes())} }
	)
	checkOccupancy := func(step int) {
		t.Helper()
		now := s.Now()
		exact := closed
		for _, c := range held {
			exact[0] += int64(now - c.at)
			exact[1] += c.bytes * int64(now-c.at)
		}
		float.advance(now, levels())
		if got0, got1 := buf.OccupancyIntegral(now); got0 != exact[0] || got1 != exact[1] {
			t.Fatalf("step %d: occupancy integral %d msg·ns, %d B·ns; residences sum to %d, %d", step, got0, got1, exact[0], exact[1])
		}
		if !float.agrees(exact) {
			t.Fatalf("step %d: float integrator %v after %d advances; residences sum to %v ns", step, float.integral, float.advances, exact)
		}
	}
	var (
		pos  int
		hi   = [3]uint64{1 << 20, 1 << 20, 1 << 20} // highest seq ever put per source
		ids  []wire.MessageID                       // every id ever put
		live = func(src topology.NodeID) []*Entry {
			var out []*Entry
			for _, e := range oracle.sorted(nil) {
				if e.ID.Source == src {
					out = append(out, e)
				}
			}
			return out
		}
	)
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	put := func(src topology.NodeID, seq uint64, idle byte) {
		id := wire.MessageID{Source: src, Seq: seq}
		if _, ok := oracle.get(id); ok {
			return // a Buffer never puts a held id
		}
		e := &Entry{ID: id, LastRequest: time.Duration(idle) * time.Millisecond, PromotedAt: -1}
		dense.put(e)
		oracle.put(e)
		float.advance(s.Now(), levels())
		buf.Store(id, payload[:idle])
		held[id] = heldCopy{s.Now(), int64(idle)}
		for _, p := range policies {
			p.ObserveStore(id, 0)
		}
		ids = append(ids, id)
		hi[src] = max(hi[src], seq)
	}
	remove := func(e *Entry) {
		dense.remove(e.ID)
		oracle.remove(e.ID)
		float.advance(s.Now(), levels())
		buf.Remove(e.ID, EvictManual)
		c := held[e.ID]
		closed[0] += int64(s.Now() - c.at)
		closed[1] += c.bytes * int64(s.Now()-c.at)
		delete(held, e.ID)
	}
	for step := 0; pos < len(script); step++ {
		b := next()
		s.RunUntil(s.Now() + time.Duration(b)*7919*time.Microsecond + 1)
		src := topology.NodeID(b>>3) % 3
		es := live(src)
		switch b & 7 {
		case opPutNext, opPutNext2:
			put(src, hi[src]+1, next())
		case opPutNear:
			base := hi[src]
			if len(es) > 0 {
				base = es[0].ID.Seq
			}
			off := uint64(next())
			put(src, base+off%64-16, byte(off))
		case opPutFar:
			put(src, hi[src]+17+uint64(next())%64, 0)
		case opRemoveMin:
			if len(es) > 0 {
				remove(es[0])
			}
		case opRemoveAny:
			if k := int(next()); len(es) > 0 {
				remove(es[k%len(es)])
			}
		case opTouch:
			if k := int(next()); len(es) > 0 {
				e := es[k%len(es)]
				if k&1 == 0 {
					e.LastRequest = time.Duration(k) * time.Millisecond
					for _, p := range policies {
						p.ObserveRequest(e.ID, e.LastRequest) // adaptive's demand orders sources
					}
				} else {
					e.PromotedAt = time.Duration(k) * time.Millisecond
				}
			}
		case opDrain:
			for _, e := range es {
				remove(e)
			}
		}
		checkIndexesAgree(t, step, dense, oracle, ids)
		checkOccupancy(step)
		for i, p := range policies {
			if dv, ov := dense.victim(p), oracle.victim(p); dv != ov {
				t.Fatalf("step %d: %s victim %p, oracle %p", step, names[i], dv, ov)
			}
		}
	}
	// Close ends every live residence now; the integral then stays put.
	float.advance(s.Now(), levels())
	buf.Close()
	for id, c := range held {
		closed[0] += int64(s.Now() - c.at)
		closed[1] += c.bytes * int64(s.Now()-c.at)
		delete(held, id)
	}
	s.RunUntil(s.Now() + time.Second)
	checkOccupancy(-1)
}

// heldCopy is a copy the fuzzed buffer holds: when it was stored and its
// payload bytes.
type heldCopy struct {
	at    time.Duration
	bytes int64
}

func checkIndexesAgree(t *testing.T, step int, dense *denseIndex, oracle *mapIndex, ids []wire.MessageID) {
	t.Helper()
	if dense.size() != oracle.size() {
		t.Fatalf("step %d: size %d, oracle %d", step, dense.size(), oracle.size())
	}
	for _, id := range ids {
		de, dok := dense.get(id)
		oe, ook := oracle.get(id)
		if de != oe || dok != ook {
			t.Fatalf("step %d: get(%v) = %p %v, oracle %p %v", step, id, de, dok, oe, ook)
		}
	}
	ds, ms := dense.sorted(nil), oracle.sorted(nil)
	if len(ds) != len(ms) {
		t.Fatalf("step %d: sorted has %d entries, oracle %d", step, len(ds), len(ms))
	}
	for i := range ds {
		if ds[i] != ms[i] {
			t.Fatalf("step %d: sorted[%d] = %v, oracle %v", step, i, ds[i].ID, ms[i].ID)
		}
	}
	if dv, ov := dense.victim(BufferAll{}), oracle.victim(BufferAll{}); dv != ov {
		t.Fatalf("step %d: victim %p, oracle %p", step, dv, ov)
	}
}
