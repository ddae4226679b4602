package core

// This file is the buffer's entry index as it stood before the dense
// per-source rewrite: a flat map[MessageID]*Entry with an O(n log n) sort
// on every ordered snapshot. It is kept verbatim as the oracle
// FuzzIndexDifferential drives the dense index against, and that
// mirrorAgrees holds a buffer's index to in the budget and policy
// differential tests.

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

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
