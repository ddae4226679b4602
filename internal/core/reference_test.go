package core

// This file is the buffer's entry index as it stood before the dense
// per-source rewrite: a flat map[MessageID]*Entry with an O(n log n) sort
// on every ordered snapshot. It is kept verbatim as the oracle the budget
// and policy differential tests drive the dense index against, swapped in
// through the entryIndex interface.

import (
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

// indexKind names an entry-index implementation for the differential
// tests: the production dense index, or the map reference above.
type indexKind struct {
	name string
	mk   func() entryIndex
}

var (
	indexDense     = indexKind{"IndexDense", func() entryIndex { return newDenseIndex() }}
	indexLegacyMap = indexKind{"IndexLegacyMap", func() entryIndex {
		return &mapIndex{entries: make(map[wire.MessageID]*Entry)}
	}}
)

// newBufferWithIndex is NewBuffer running on the given index kind.
func newBufferWithIndex(cfg Config, kind indexKind) *Buffer {
	b := NewBuffer(cfg)
	b.idx = kind.mk()
	return b
}
