package wire

import (
	"cmp"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// windowItem is what the windows under test hold: its own id, so a slot
// can be checked against the sequence it stands for.
type windowItem struct{ id MessageID }

// windowSources are the sources FuzzSourceWindows names; the first one
// heard sorts between or around the others, depending on the script.
var windowSources = [...]topology.NodeID{7, 2, 5}

// Script ops: an op is two bytes, the kind in the first's low two bits and
// the source (windowSources index) above them, and an operand.
const (
	winPut     = iota // put the sequence 1+operand
	winDrop           // drop the sequence 1+operand, if held
	winPutFar         // put the sequence 1+64·operand
	winDropLow        // drop the source's lowest held sequence
)

// winOp encodes one op on windowSources[src].
func winOp(kind, src int, operand byte) []byte { return []byte{byte(kind | src<<2), operand} }

// winOps encodes one kind of op over several operands.
func winOps(kind, src int, operands ...byte) []byte {
	var out []byte
	for _, o := range operands {
		out = append(out, winOp(kind, src, o)...)
	}
	return out
}

// FuzzSourceWindows drives a SourceTable of SeqWindows, the layout of a
// core.Buffer's index and of an rrmp member's records, and a map through
// one byte-decoded script of puts and drops over three sources, and
// requires them to agree after every op: Find and Get on every source and
// id, and a walk of the table in (source, seq) order. It also pins the
// layout: sources ascending and each once; the first source inline while
// it is the only one, and the inline slot zero once the slots move to the
// heap; a window's non-nil slot i holding sequence base+i (a stale pointer
// left in a vacated slot would resurface when the window grows back over
// it); and the growth rule: a put past either end leaves the backing
// array's length alone when the span held fits it, and otherwise grows it
// to max(span, 2·len), with the window then based at the lowest sequence
// held.
//
//	go test -fuzz=FuzzSourceWindows -fuzztime=20s ./internal/wire
func FuzzSourceWindows(f *testing.F) {
	// Grow 1 → 2 → 4, drop the top two, then prepend below the base:
	// first into the room that frees, then past it.
	f.Add(slices.Concat(winOps(winPut, 0, 9, 10, 11, 12), winOps(winDrop, 0, 12, 11), winOp(winPut, 0, 7), winOp(winPut, 0, 2)))
	// Slide with trailing removed slots: eight held, the last three and
	// the first three dropped, then a put past the end slides the two
	// left to the front and must clear their old slots.
	f.Add(slices.Concat(winOps(winPut, 0, 0, 1, 2, 3, 4, 5, 6, 7), winOps(winDrop, 0, 5, 6, 7, 0, 1, 2), winOp(winPut, 0, 8)))
	// Grow past doubling with far puts, and replace a held item.
	f.Add(slices.Concat(winOps(winPut, 0, 0, 1), winOps(winPutFar, 0, 3, 1), winOps(winPut, 0, 1, 100)))
	// Empty, then rebase: a put inside the old span lands in place, one
	// outside it rebases the empty window.
	f.Add(slices.Concat(winOps(winPut, 0, 0, 1, 2, 3), winOps(winDropLow, 0, 0, 0, 0, 0), winOp(winPut, 0, 2),
		winOp(winDrop, 0, 2), winOp(winPut, 0, 200), winOp(winPut, 0, 201)))
	// Second and third sources in each order: 7 then 2 (before it) then 5
	// (between); 2, 5, 7 (appended); 5, 7, 2.
	f.Add(slices.Concat(winOps(winPut, 0, 0, 1), winOps(winPut, 1, 0), winOps(winPut, 2, 3, 4), winOps(winDropLow, 0, 0), winOps(winPut, 0, 2)))
	f.Add(slices.Concat(winOps(winPut, 1, 5), winOps(winPut, 2, 5), winOps(winPut, 0, 5), winOps(winDrop, 1, 5), winOps(winPut, 1, 1)))
	f.Add(slices.Concat(winOps(winPut, 2, 9), winOps(winPut, 0, 4, 3), winOps(winPut, 1, 1), winOps(winDropLow, 2, 0), winOps(winPut, 2, 30)))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			t.Skip() // every op checks every id: cost is quadratic in length
		}
		runWindowScript(t, script)
	})
}

func runWindowScript(t *testing.T, script []byte) {
	t.Helper()
	var tab SourceTable[SeqWindow[windowItem]]
	oracle := map[MessageID]*windowItem{}
	var ids []MessageID // every id ever put
	held := func(src topology.NodeID) []uint64 {
		var seqs []uint64
		for id := range oracle {
			if id.Source == src {
				seqs = append(seqs, id.Seq)
			}
		}
		slices.Sort(seqs)
		return seqs
	}
	for op := 0; op+1 < len(script); op += 2 {
		kind, operand := int(script[op]&3), script[op+1]
		src := windowSources[int(script[op]>>2)%len(windowSources)]
		switch kind {
		case winPut, winPutFar:
			seq := 1 + uint64(operand)
			if kind == winPutFar {
				seq = 1 + 64*uint64(operand)
			}
			id := MessageID{Source: src, Seq: seq}
			w := tab.Add(src)
			base, n := w.base, len(w.back)
			x := &windowItem{id: id}
			w.Put(seq, x)
			oracle[id] = x
			ids = append(ids, id)
			seqs := held(src)
			switch span := seqs[len(seqs)-1] - seqs[0] + 1; {
			case seq-base < uint64(n):
				if w.base != base || len(w.back) != n {
					t.Fatalf("op %d: a put inside [%d, %d) moved the window to [%d, %d)", op/2, base, base+uint64(n), w.base, w.base+uint64(len(w.back)))
				}
			case w.base != seqs[0]:
				t.Fatalf("op %d: a put past the window based it at %d; the lowest held is %d", op/2, w.base, seqs[0])
			case span <= uint64(n) && len(w.back) != n:
				t.Fatalf("op %d: a span of %d fits %d slots, but the window resized to %d", op/2, span, n, len(w.back))
			case span > uint64(n) && uint64(len(w.back)) != max(span, 2*uint64(n)):
				t.Fatalf("op %d: a span of %d past %d slots grew the window to %d, want %d", op/2, span, n, len(w.back), max(span, 2*uint64(n)))
			}
		case winDrop, winDropLow:
			seq := 1 + uint64(operand)
			if kind == winDropLow {
				seqs := held(src)
				if len(seqs) == 0 {
					break
				}
				seq = seqs[0]
			}
			id := MessageID{Source: src, Seq: seq}
			if oracle[id] != nil {
				tab.Find(src).Drop(seq)
				delete(oracle, id)
			}
		}
		checkWindows(t, op/2, &tab, oracle, ids)
	}
}

func checkWindows(t *testing.T, op int, tab *SourceTable[SeqWindow[windowItem]], oracle map[MessageID]*windowItem, ids []MessageID) {
	t.Helper()
	slots := tab.Slots()
	switch {
	case len(slots) == 1 && &slots[0] != &tab.first[0]:
		t.Fatalf("op %d: the only source is not held inline", op)
	case len(slots) > 1 && !reflect.ValueOf(tab.first[0]).IsZero():
		t.Fatalf("op %d: the slots moved to the heap, but the inline slot still holds source %d's state", op, tab.first[0].Source)
	}
	var walk []MessageID
	for j := range slots {
		s, w := slots[j].Source, &slots[j].State
		if j > 0 && slots[j-1].Source >= s {
			t.Fatalf("op %d: slot %d's source %d is not above slot %d's, %d", op, j, s, j-1, slots[j-1].Source)
		}
		if len(w.back) != cap(w.back) {
			t.Fatalf("op %d: source %d's window has %d slots in a backing array of %d", op, s, len(w.back), cap(w.back))
		}
		for i, x := range w.Slots() {
			if x == nil {
				continue
			}
			if want := (MessageID{Source: s, Seq: w.base + uint64(i)}); x.id != want || oracle[want] != x {
				t.Fatalf("op %d: source %d's slot %d (base %d) holds the item of %v", op, s, i, w.base, x.id)
			}
			walk = append(walk, x.id)
		}
	}
	want := slices.SortedFunc(maps.Keys(oracle), func(a, b MessageID) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Seq, b.Seq))
	})
	if !slices.Equal(walk, want) {
		t.Fatalf("op %d: the walk yielded %v, want %v", op, walk, want)
	}
	for _, src := range windowSources {
		i := slices.IndexFunc(slots, func(s SourceSlot[SeqWindow[windowItem]]) bool { return s.Source == src })
		if got := tab.Find(src); (i < 0 && got != nil) || (i >= 0 && got != &slots[i].State) {
			t.Fatalf("op %d: Find(%d) = %p, but the source is at slot %d", op, src, got, i)
		}
	}
	for _, id := range ids {
		var got *windowItem
		if w := tab.Find(id.Source); w != nil {
			got = w.Get(id.Seq)
		}
		if got != oracle[id] {
			t.Fatalf("op %d: Get(%v) = %p, map %p", op, id, got, oracle[id])
		}
	}
}
