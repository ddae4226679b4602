package core

import "repro/internal/wire"

// denseIndex stores a Buffer's live entries, one wire.SeqWindow per
// message source in a wire.SourceTable, and counts them. Sequence numbers
// from a source are dense in practice (a sender counts 1, 2, 3, ...), so a
// lookup is a binary search over the sources (almost every simulation has
// exactly one) plus an array index, with no hashing, and sorted iteration
// comes for free (sources ascending, sequences ascending). A one-sender
// group's buffer holds its source inline and makes no table; a Buffer
// never moves, so that slot's address is stable while it serves.
//
// sorted iterates in (Source, Seq) order: rng draws are paired with
// entries during leave handoff, so this order is part of the determinism
// contract. FuzzIndexDifferential holds the index to a map-based oracle
// (reference_test.go) under every policy's displacement order.
type denseIndex struct {
	srcs wire.SourceTable[wire.SeqWindow[Entry]]
	n    int
}

func (x *denseIndex) get(id wire.MessageID) (*Entry, bool) {
	w := x.srcs.Find(id.Source)
	if w == nil {
		return nil, false
	}
	e := w.Get(id.Seq)
	return e, e != nil
}

// put indexes e, whose id the index does not hold.
func (x *denseIndex) put(e *Entry) {
	x.srcs.Add(e.ID.Source).Put(e.ID.Seq, e)
	x.n++
}

func (x *denseIndex) remove(id wire.MessageID) {
	if w := x.srcs.Find(id.Source); w != nil && w.Get(id.Seq) != nil {
		w.Drop(id.Seq)
		x.n--
	}
}

func (x *denseIndex) size() int { return x.n }

// sorted appends all entries in (Source, Seq) order to dst and returns the
// result.
func (x *denseIndex) sorted(dst []*Entry) []*Entry {
	srcs := x.srcs.Slots()
	for i := range srcs {
		for _, e := range srcs[i].State.Slots() {
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
	srcs := x.srcs.Slots()
	for i := range srcs {
		for _, e := range srcs[i].State.Slots() {
			if e != nil && (v == nil || p.DisplacedBefore(e, v)) {
				v = e
			}
		}
	}
	return v
}

// each visits all entries in (Source, Seq) order.
func (x *denseIndex) each(fn func(e *Entry)) {
	srcs := x.srcs.Slots()
	for i := range srcs {
		for _, e := range srcs[i].State.Slots() {
			if e != nil {
				fn(e)
			}
		}
	}
}
