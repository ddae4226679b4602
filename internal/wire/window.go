package wire

import (
	"slices"

	"repro/internal/topology"
)

// SeqWindow holds one item per sequence over a span of one source's
// sequences: slot i holds the item of sequence base+i, or nil. Sequences
// are dense (see SeqSet), so a lookup is a subtraction and an index, with
// no hashing. A Drop only clears its slot. A Put past either end moves
// the items held to the start of the backing array when they and the new
// one span no more than it, and only otherwise grows it, to
// max(span, 2·len). So the window spans about the items held, not the
// source's history, and every slot outside their span is nil. The zero
// SeqWindow is empty.
//
// A core.Buffer keeps its entries in one per source, and an rrmp member
// its message records, each in a SourceTable; FuzzSourceWindows holds the
// pair to a map.
type SeqWindow[T any] struct {
	base uint64
	back []*T // len(back) == cap(back)
}

// Get returns seq's item, or nil.
func (w *SeqWindow[T]) Get(seq uint64) *T {
	if i := seq - w.base; i < uint64(len(w.back)) { // seq < base wraps past len
		return w.back[i]
	}
	return nil
}

// Put places x in seq's slot, replacing what it held.
func (w *SeqWindow[T]) Put(seq uint64, x *T) {
	if i := seq - w.base; i < uint64(len(w.back)) {
		w.back[i] = x
		return
	}
	// The span of items held, back[lo:hi], and the sequences the window
	// must now cover, first..last.
	lo, hi := 0, len(w.back)
	for lo < hi && w.back[lo] == nil {
		lo++
	}
	for hi > lo && w.back[hi-1] == nil {
		hi--
	}
	first, last, shift := seq, seq, uint64(0) // shift: where back[lo] moves to
	if lo < hi {
		first, last = min(seq, w.base+uint64(lo)), max(seq, w.base+uint64(hi-1))
		shift = w.base + uint64(lo) - first
	}
	if n := last - first + 1; n <= uint64(len(w.back)) {
		held := copy(w.back[shift:], w.back[lo:hi])
		clear(w.back[:shift])
		clear(w.back[shift+uint64(held):])
	} else {
		grown := make([]*T, max(n, 2*uint64(len(w.back))))
		copy(grown[shift:], w.back[lo:hi])
		w.back = grown
	}
	w.base = first
	w.back[seq-first] = x
}

// Drop empties seq's slot, which lies in the window.
func (w *SeqWindow[T]) Drop(seq uint64) { w.back[seq-w.base] = nil }

// Slots returns the window's slots in sequence order; nil ones hold
// nothing. The slice is valid until the next Put.
func (w *SeqWindow[T]) Slots() []*T { return w.back }

// SourceTable holds a state S per message source, sorted by source. A
// group has one sender or a handful, so a binary search beats hashing the
// id, and walks come in source order for free. The first source's slot is
// held inline, so a one-sender group makes no table. When a second source
// arrives the slots move to the heap and the inline slot is cleared, so it
// keeps alive nothing its heap copy holds. A state's pointer is valid
// until the next source is added, and the table must not be copied while
// it holds one: its slots then point at its own inline slot. The zero
// SourceTable is empty.
type SourceTable[S any] struct {
	slots []SourceSlot[S]
	first [1]SourceSlot[S]
}

// SourceSlot is one source's state in a SourceTable.
type SourceSlot[S any] struct {
	Source topology.NodeID
	State  S
}

// Find returns src's state, or nil if src has none.
func (t *SourceTable[S]) Find(src topology.NodeID) *S {
	if i, ok := t.search(src); ok {
		return &t.slots[i].State
	}
	return nil
}

// Add returns src's state, adding a zero one if src has none.
func (t *SourceTable[S]) Add(src topology.NodeID) *S {
	i, ok := t.search(src)
	switch {
	case ok:
	case len(t.slots) == 0:
		t.first[0] = SourceSlot[S]{Source: src}
		t.slots = t.first[:]
	default:
		inline := &t.slots[0] == &t.first[0]
		t.slots = slices.Insert(t.slots, i, SourceSlot[S]{Source: src})
		if inline {
			t.first[0] = SourceSlot[S]{}
		}
	}
	return &t.slots[i].State
}

// Slots returns the table's slots in ascending source order.
func (t *SourceTable[S]) Slots() []SourceSlot[S] { return t.slots }

// search returns where src's slot is, or belongs, in t.slots: a binary
// search written out, as a hot path's generic callback would copy a slot
// per probe.
func (t *SourceTable[S]) search(src topology.NodeID) (int, bool) {
	lo, hi := 0, len(t.slots)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); t.slots[h].Source < src {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(t.slots) && t.slots[lo].Source == src
}
