package core

import (
	"sort"

	"repro/internal/topology"
	"repro/internal/wire"
)

// entryIndex stores a Buffer's live entries. The Buffer runs on denseIndex;
// the interface is the seam the tests swap the map-based reference index
// through (reference_test.go). Implementations must agree on
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
	// victim returns the entry p displaces first — the minimum under
	// p.DisplacedBefore — or nil when the index is empty.
	victim(p Policy) *Entry
	// each visits all entries in unspecified order (timer teardown only).
	each(fn func(*Entry))
	reset()
}

// denseIndex holds one srcSlot per message source. Sequence numbers from a
// source are dense in practice (a sender counts 1, 2, 3, ...), so a slot is
// a base offset plus a slice indexed by seq-base; lookups and removals are
// pure array ops after one cheap int32-keyed map access, with no
// MessageID hashing, and sorted iteration comes for free (sources
// ascending, sequences ascending).
type denseIndex struct {
	srcs map[topology.NodeID]*srcSlot
	// order is the sorted source list, maintained on slot creation (a rare
	// event: almost every simulation has exactly one source), giving
	// sorted() a single allocation-free pass.
	order []topology.NodeID
	n     int
}

func newDenseIndex() *denseIndex {
	return &denseIndex{srcs: make(map[topology.NodeID]*srcSlot)}
}

// srcSlot's entries window is a subslice of back, its backing array. Every
// slot of back outside the window is nil, so the window can grow into
// back, or slide to its start, without clearing first.
type srcSlot struct {
	base    uint64 // seq of entries[0]
	entries []*Entry
	back    []*Entry // len(back) == cap(back)
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

func (x *denseIndex) victim(p Policy) *Entry {
	var v *Entry
	for _, src := range x.order {
		for _, e := range x.srcs[src].entries {
			if e != nil && (v == nil || p.DisplacedBefore(e, v)) {
				v = e
			}
		}
	}
	return v
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
