package core

// This file holds two pieces of the buffer as they stood before rewrites,
// kept as oracles. The entry index before the dense per-source rewrite: a
// flat map[MessageID]*Entry with an O(n log n) sort on every ordered
// snapshot, kept verbatim; FuzzIndexDifferential drives the dense index
// against it, and mirrorAgrees holds a buffer's index to it in the budget
// and policy differential tests. And the float step integrator the buffer
// kept before its occupancy integral became an exact sum of residences,
// which FuzzIndexDifferential holds that sum to within rounding.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/wire"
)

// floatOccupancy is the buffer's occupancy integrator before the integral
// became a sum of residences: before every change of its two levels
// (entries and payload bytes), the buffer advanced it, adding level ×
// elapsed time in float seconds.
type floatOccupancy struct {
	since    time.Duration
	integral [2]float64 // level-seconds accumulated before since
	advances int        // calls to advance, each one rounding step
}

func (o *floatOccupancy) advance(now time.Duration, levels [2]float64) {
	for i, v := range levels {
		o.integral[i] += v * (now - o.since).Seconds()
	}
	o.since = now
	o.advances++
}

// agrees reports whether the float integrals are within rounding of the
// exact ones, given in level-nanoseconds. An advance rounds its term three
// times (twice in Seconds, once in the product) and the running sum once,
// each with relative error at most 2⁻⁵³, and every term is non-negative,
// so after k advances both integrals lie within (k+2)·2⁻⁵³ of the exact
// value, relative, to first order. The check allows (3k+5)·2⁻⁵³, which
// also covers the exact value's own conversion to seconds.
func (o *floatOccupancy) agrees(exact [2]int64) bool {
	tol := float64(3*(o.advances+1)+2) * 0x1p-53
	for i, ns := range exact {
		want := float64(ns) / float64(time.Second)
		if math.Abs(o.integral[i]-want) > tol*want {
			return false
		}
	}
	return true
}

// mapIndex is the PR 2 implementation: a flat map with an O(n log n) sort
// on every ordered snapshot.
type mapIndex struct {
	entries map[wire.MessageID]*Entry
}

func (x *mapIndex) get(id wire.MessageID) (*Entry, bool) {
	e, ok := x.entries[id]
	return e, ok
}

func (x *mapIndex) put(e *Entry)             { x.entries[e.ID] = e }
func (x *mapIndex) remove(id wire.MessageID) { delete(x.entries, id) }
func (x *mapIndex) size() int                { return len(x.entries) }
func (x *mapIndex) reset()                   { x.entries = make(map[wire.MessageID]*Entry) }
func (x *mapIndex) each(fn func(e *Entry)) {
	for _, e := range x.entries {
		//lint:allow maporder -- each promises no order: its callers stop timers and take an argmin under Policy.DisplacedBefore, a strict total order
		fn(e)
	}
}

func (x *mapIndex) victim(p Policy) *Entry {
	var v *Entry
	for _, e := range x.entries {
		//lint:allow maporder -- the minimum under Policy.DisplacedBefore, a strict total order, is the same in any visit order
		if v == nil || p.DisplacedBefore(e, v) {
			v = e
		}
	}
	return v
}

func (x *mapIndex) sorted(dst []*Entry) []*Entry {
	start := len(dst)
	for _, e := range x.entries {
		//lint:allow maporder -- the appended tail aliases dst[start:] as out and is sorted immediately below
		dst = append(dst, e)
	}
	out := dst[start:]
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Source != out[j].ID.Source {
			return out[i].ID.Source < out[j].ID.Source
		}
		return out[i].ID.Seq < out[j].ID.Seq
	})
	return dst
}

// mirrorAgrees copies b's live entries into a map oracle and reports
// whether the two indexes agree on the sorted snapshot and on p's pressure
// victim. The oracle visits its entries in map order, so a p whose
// DisplacedBefore is not a strict total order picks a different victim
// from run to run.
func mirrorAgrees(b *Buffer, p Policy) error {
	oracle := &mapIndex{entries: make(map[wire.MessageID]*Entry)}
	b.idx.each(oracle.put)
	ds, ms := b.idx.sorted(nil), oracle.sorted(nil)
	if len(ds) != len(ms) || b.idx.size() != oracle.size() {
		return fmt.Errorf("dense holds %d entries (size %d), oracle %d", len(ds), b.idx.size(), len(ms))
	}
	for i := range ds {
		if ds[i] != ms[i] {
			return fmt.Errorf("sorted[%d] = %v, oracle %v", i, ds[i].ID, ms[i].ID)
		}
	}
	if dv, ov := b.idx.victim(p), oracle.victim(p); dv != ov {
		return fmt.Errorf("victim %p, oracle %p", dv, ov)
	}
	return nil
}
