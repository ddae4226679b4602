package wire

import (
	"encoding/binary"
	"testing"
)

// TestInOrderMarksKeepTwoWords pins the set's size: a source received in
// order keeps at most two bitset words, however many sequences it sent,
// because each word the prefix covers is dropped.
func TestInOrderMarksKeepTwoWords(t *testing.T) {
	var s SeqSet
	for seq := uint64(1); seq <= 10000; seq++ {
		s.Mark(seq)
		if len(s.bits) > 2 {
			t.Fatalf("after %d in-order marks the bitset holds %d words", seq, len(s.bits))
		}
	}
	if s.Prefix() != 10000 || !s.Has(1) || !s.Has(10000) || s.Has(10001) {
		t.Fatalf("prefix %d, Has(1)=%v Has(10000)=%v Has(10001)=%v", s.Prefix(), s.Has(1), s.Has(10000), s.Has(10001))
	}
}

// TestInOrderMarksAllocateNothing pins the in-order fast path: a source
// received in order is held by the prefix alone, so its marks make no
// bitset word. Before the fast path, a set's first in-order mark made one,
// which every rrmp member paid once per source.
func TestInOrderMarksAllocateNothing(t *testing.T) {
	var s SeqSet
	seq := uint64(0)
	if n := testing.AllocsPerRun(10000, func() { seq++; s.Mark(seq) }); n != 0 {
		t.Fatalf("%v allocs per in-order mark, want 0", n)
	}
	if s.Prefix() != seq || len(s.bits) != 0 || s.marked {
		t.Fatalf("after %d in-order marks: prefix %d, %d words, marked %v", seq, s.Prefix(), len(s.bits), s.marked)
	}
	// A set whose gap closed returns to the fast path once the prefix
	// passes its last word, and its next gap places one word afresh, not
	// words back to where the old bitset began.
	var g SeqSet
	g.Mark(2)
	for seq := uint64(1); seq <= 64; seq++ {
		g.Mark(seq)
	}
	if n := testing.AllocsPerRun(10000, func() { g.Mark(g.Prefix() + 1) }); n != 0 {
		t.Fatalf("%v allocs per in-order mark after a closed gap, want 0", n)
	}
	g.Mark(g.Prefix() + 2)
	if len(g.bits) != 1 {
		t.Fatalf("a one-sequence gap at %d holds %d words, want 1", g.Prefix()+1, len(g.bits))
	}
}

// seqSpan bounds the sequences a fuzzed mark order names: sixteen bitset
// words, enough for gaps that straddle words and marks below the first.
const seqSpan = 1024

// markOrder encodes sequences (1..seqSpan) as FuzzSeqSet reads them: two
// little-endian bytes each, holding seq-1.
func markOrder(seqs ...uint64) []byte {
	out := make([]byte, 0, 2*len(seqs))
	for _, seq := range seqs {
		out = binary.LittleEndian.AppendUint16(out, uint16(seq-1))
	}
	return out
}

// seqRange returns lo, lo+step, ... up to hi inclusive (step may be
// negative).
func seqRange(lo, hi uint64, step int) []uint64 {
	var out []uint64
	for seq := lo; ; seq = uint64(int(seq) + step) {
		out = append(out, seq)
		if seq == hi {
			return out
		}
	}
}

// FuzzSeqSet holds the set to a plain map over fuzzed mark orders: early
// firsts, gaps, late fills and duplicates. After every mark, Has agrees
// with the map on every sequence up to a word past the span, and Prefix
// is the largest k with 1..k all marked.
//
//	go test -fuzz=FuzzSeqSet -fuzztime=20s ./internal/wire
func FuzzSeqSet(f *testing.F) {
	f.Add(markOrder(seqRange(1, 200, 1)...))                             // in order
	f.Add(markOrder(seqRange(200, 1, -1)...))                            // reverse
	f.Add(markOrder(append(seqRange(1, 62, 1), 66, 130, 63, 65, 64)...)) // gaps straddling word 0/1 and 1/2
	f.Add(markOrder(append(append(seqRange(1, 60, 1), seqRange(70, 140, 1)...), seqRange(61, 69, 1)...)...))
	f.Add(markOrder(append([]uint64{700, 5, 700}, seqRange(1, 4, 1)...)...)) // first mark far past a late early loss
	f.Add(markOrder(seqSpan, 1, 64, 128, 192, 2, 3, 63, 65))
	// Pseudo-random orders, every fourth mostly in order, as the set's
	// first property test drew them.
	x := uint64(5)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for trial := range 8 {
		span := 1 + next(400)
		var seqs []uint64
		marked := make(map[uint64]bool)
		prefix := uint64(0)
		for range 3 * span {
			seq := 1 + next(span)
			if trial%4 == 0 && next(3) > 0 {
				seq = min(span, prefix+1+next(3))
			}
			seqs = append(seqs, seq)
			marked[seq] = true
			for marked[prefix+1] {
				prefix++
			}
		}
		f.Add(markOrder(seqs...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var s SeqSet
		set := make(map[uint64]bool)
		for i := 0; i+1 < len(data) && i < 2*512; i += 2 {
			seq := 1 + uint64(binary.LittleEndian.Uint16(data[i:]))%seqSpan
			s.Mark(seq)
			set[seq] = true
			for q := uint64(0); q <= seqSpan+64; q++ {
				if s.Has(q) != set[q] {
					t.Fatalf("mark %d (seq %d): Has(%d) = %v, want %v", i/2, seq, q, s.Has(q), set[q])
				}
			}
			k := uint64(0)
			for set[k+1] {
				k++
			}
			if s.Prefix() != k {
				t.Fatalf("mark %d (seq %d): Prefix() = %d, want %d", i/2, seq, s.Prefix(), k)
			}
		}
	})
}
