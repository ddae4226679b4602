package core

import (
	"sort"

	"repro/internal/topology"
	"repro/internal/wire"
)

// IndexKind selects the Buffer's entry-index implementation.
type IndexKind int

const (
	// IndexDense (the default) keys entries by source with dense,
	// sequence-indexed slices per source: one small map lookup on the
	// source id plus an array index, no MessageID hashing, and sorted
	// iteration for free (sources ascending, sequences ascending — the
	// exact order the legacy index produced by sorting). This is the
	// scale rewrite's O(1) id lookup.
	IndexDense IndexKind = iota
	// IndexLegacyMap is the pre-rewrite map[MessageID]*Entry index. It is
	// retained so property tests can run both implementations side by side
	// and prove the rewrite behaviour-preserving; new code should not
	// select it.
	IndexLegacyMap
)

// entryIndex stores a Buffer's live entries. Implementations must agree on
// the observable contract exactly: sorted() iterates in (Source, Seq) order
// (rng draws are paired with entries during leave handoff, so this order is
// part of the determinism contract), and size/get/remove reflect puts
// immediately.
type entryIndex interface {
	get(id wire.MessageID) (*Entry, bool)
	put(e *Entry)
	remove(id wire.MessageID)
	size() int
	// sorted appends all entries in (Source, Seq) order to dst and returns
	// the result.
	sorted(dst []*Entry) []*Entry
	// each visits all entries in unspecified order (timer teardown only).
	each(fn func(*Entry))
	reset()
}

func newEntryIndex(kind IndexKind) entryIndex {
	if kind == IndexLegacyMap {
		return &mapIndex{entries: make(map[wire.MessageID]*Entry)}
	}
	return &denseIndex{srcs: make(map[topology.NodeID]*srcSlot)}
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

// denseIndex holds one srcSlot per message source. Sequence numbers from a
// source are dense in practice (a sender counts 1, 2, 3, ...), so a slot is
// a base offset plus a slice indexed by seq-base; lookups and removals are
// pure array ops after one cheap int32-keyed map access.
type denseIndex struct {
	srcs map[topology.NodeID]*srcSlot
	// order is the sorted source list, maintained on slot creation (a rare
	// event: almost every simulation has exactly one source), giving
	// sorted() a single allocation-free pass.
	order []topology.NodeID
	n     int
}

type srcSlot struct {
	base    uint64 // seq of entries[0]
	entries []*Entry
	count   int
}

func (x *denseIndex) slot(src topology.NodeID) *srcSlot {
	if s, ok := x.srcs[src]; ok {
		return s
	}
	s := &srcSlot{}
	x.srcs[src] = s
	i := sort.Search(len(x.order), func(i int) bool { return x.order[i] >= src })
	x.order = append(x.order, 0)
	copy(x.order[i+1:], x.order[i:])
	x.order[i] = src
	return s
}

func (x *denseIndex) get(id wire.MessageID) (*Entry, bool) {
	s, ok := x.srcs[id.Source]
	if !ok || s.count == 0 || id.Seq < s.base {
		return nil, false
	}
	i := id.Seq - s.base
	if i >= uint64(len(s.entries)) || s.entries[i] == nil {
		return nil, false
	}
	return s.entries[i], true
}

func (x *denseIndex) put(e *Entry) {
	s := x.slot(e.ID.Source)
	seq := e.ID.Seq
	if s.count == 0 {
		s.base = seq
		s.entries = s.entries[:0]
	}
	switch {
	case seq < s.base:
		// Prepend room for [seq, base): rare (an old message re-buffered
		// after its predecessors were evicted below a later base).
		shift := s.base - seq
		grown := make([]*Entry, uint64(len(s.entries))+shift)
		copy(grown[shift:], s.entries)
		s.entries = grown
		s.base = seq
	case seq-s.base >= uint64(len(s.entries)):
		for uint64(len(s.entries)) <= seq-s.base {
			s.entries = append(s.entries, nil)
		}
	}
	if s.entries[seq-s.base] == nil {
		s.count++
		x.n++
	}
	s.entries[seq-s.base] = e
}

func (x *denseIndex) remove(id wire.MessageID) {
	s, ok := x.srcs[id.Source]
	if !ok || id.Seq < s.base {
		return
	}
	i := id.Seq - s.base
	if i >= uint64(len(s.entries)) || s.entries[i] == nil {
		return
	}
	s.entries[i] = nil
	s.count--
	x.n--
	if s.count == 0 {
		s.entries = s.entries[:0]
		return
	}
	if i == 0 {
		// Trim the evicted front so the slice tracks the live span, not the
		// whole sequence history (buffers evict mostly in arrival order, so
		// this keeps memory proportional to the short-term window).
		k := 0
		for k < len(s.entries) && s.entries[k] == nil {
			k++
		}
		s.entries = s.entries[k:]
		s.base += uint64(k)
	}
}

func (x *denseIndex) size() int { return x.n }

func (x *denseIndex) sorted(dst []*Entry) []*Entry {
	for _, src := range x.order {
		s := x.srcs[src]
		for _, e := range s.entries {
			if e != nil {
				dst = append(dst, e)
			}
		}
	}
	return dst
}

func (x *denseIndex) each(fn func(e *Entry)) {
	for _, src := range x.order {
		for _, e := range x.srcs[src].entries {
			if e != nil {
				fn(e)
			}
		}
	}
}

func (x *denseIndex) reset() {
	x.srcs = make(map[topology.NodeID]*srcSlot)
	x.order = x.order[:0]
	x.n = 0
}
