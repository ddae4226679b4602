package core

import (
	"slices"

	"repro/internal/topology"
	"repro/internal/wire"
)

// denseIndex stores a Buffer's live entries, one srcSlot per message
// source, sorted by source.
// Sequence numbers from a source are dense in practice (a sender counts 1,
// 2, 3, ...), so a slot is a base offset plus a slice indexed by seq-base;
// lookups and removals are pure array ops after a binary search over the
// slots (almost every simulation has exactly one source), with no hashing,
// and sorted iteration comes for free (sources ascending, sequences
// ascending).
//
// The first source's slot is held inline (first), so a one-sender group's
// buffer makes no slot table at all. When a second source arrives the
// slots move to the heap and the inline copy is cleared, so it does not
// keep the first window's old array alive; a Buffer never moves, so the
// inline slot's address is stable while it serves.
//
// sorted iterates in (Source, Seq) order: rng draws are paired with
// entries during leave handoff, so this order is part of the determinism
// contract. FuzzIndexDifferential holds the index to a map-based oracle
// (reference_test.go) under every policy's displacement order.
type denseIndex struct {
	slots []srcSlot
	n     int
	first [1]srcSlot
}

// srcSlot's entries window is a subslice of back, its backing array. Every
// slot of back outside the window is nil, so the window can grow into
// back, or slide to its start, without clearing first.
type srcSlot struct {
	src     topology.NodeID
	base    uint64 // seq of entries[0]
	entries []*Entry
	back    []*Entry // len(back) == cap(back)
	count   int
}

// find returns src's slot, or nil if src has none.
func (x *denseIndex) find(src topology.NodeID) *srcSlot {
	i, ok := x.search(src)
	if !ok {
		return nil
	}
	return &x.slots[i]
}

// search returns where src's slot is, or belongs, in x.slots: a binary
// search written out, as a hot path's generic callback would copy a slot
// per probe.
func (x *denseIndex) search(src topology.NodeID) (int, bool) {
	lo, hi := 0, len(x.slots)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); x.slots[h].src < src {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(x.slots) && x.slots[lo].src == src
}

// slot returns src's slot, creating it if needed. The pointer is valid
// until the next slot creation.
func (x *denseIndex) slot(src topology.NodeID) *srcSlot {
	i, ok := x.search(src)
	switch {
	case ok:
	case len(x.slots) == 0:
		x.first[0] = srcSlot{src: src}
		x.slots = x.first[:]
	default:
		inline := &x.slots[0] == &x.first[0]
		x.slots = slices.Insert(x.slots, i, srcSlot{src: src})
		if inline {
			x.first[0] = srcSlot{}
		}
	}
	return &x.slots[i]
}

func (x *denseIndex) get(id wire.MessageID) (*Entry, bool) {
	s := x.find(id.Source)
	if s == nil || s.count == 0 || id.Seq < s.base {
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
		s.entries = s.back[:0]
	}
	switch {
	case seq < s.base:
		// Prepend room for [seq, base): rare (an old message re-buffered
		// after its predecessors were evicted below a later base).
		s.place(s.base-seq, s.base-seq+uint64(len(s.entries)))
		s.base = seq
	case seq-s.base >= uint64(cap(s.entries)):
		s.place(0, seq-s.base+1)
	case seq-s.base >= uint64(len(s.entries)):
		s.entries = s.entries[:seq-s.base+1] // past the window is nil
	}
	if s.entries[seq-s.base] == nil {
		s.count++
		x.n++
	}
	s.entries[seq-s.base] = e
}

func (x *denseIndex) remove(id wire.MessageID) {
	s := x.find(id.Source)
	if s == nil || id.Seq < s.base {
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
		s.entries = s.back[:0]
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

// place makes the window n slots long with the live window moved to start
// at offset shift. It slides the window to the start of back when n fits
// there, and only otherwise grows back, geometrically.
func (s *srcSlot) place(shift, n uint64) {
	live := uint64(len(s.entries))
	if n <= uint64(len(s.back)) {
		copy(s.back[shift:], s.entries)
		clear(s.back[:shift])
		clear(s.back[shift+live:])
	} else {
		grown := make([]*Entry, max(n, 2*uint64(len(s.back))))
		copy(grown[shift:], s.entries)
		s.back = grown
	}
	s.entries = s.back[:n]
}

func (x *denseIndex) size() int { return x.n }

// sorted appends all entries in (Source, Seq) order to dst and returns the
// result.
func (x *denseIndex) sorted(dst []*Entry) []*Entry {
	for i := range x.slots {
		for _, e := range x.slots[i].entries {
			if e != nil {
				dst = append(dst, e)
			}
		}
	}
	return dst
}

// victim returns the entry p displaces first, the minimum under
// p.DisplacedBefore, or nil when the index is empty.
func (x *denseIndex) victim(p Policy) *Entry {
	var v *Entry
	for i := range x.slots {
		for _, e := range x.slots[i].entries {
			if e != nil && (v == nil || p.DisplacedBefore(e, v)) {
				v = e
			}
		}
	}
	return v
}

// each visits all entries (timer teardown only).
func (x *denseIndex) each(fn func(e *Entry)) {
	for i := range x.slots {
		for _, e := range x.slots[i].entries {
			if e != nil {
				fn(e)
			}
		}
	}
}

func (x *denseIndex) reset() {
	x.slots = nil
	x.n = 0
	x.first[0] = srcSlot{}
}
