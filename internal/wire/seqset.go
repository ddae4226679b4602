package wire

// SeqSet is the set of sequence numbers received from one source: the
// contiguous prefix plus a bitset over the sequences past it, rather than
// a map. Sequences are dense (senders count 1, 2, 3, ...), so membership
// is one compare or one shift-and-mask, and marking never hashes. Mark
// advances the prefix as it closes and drops the bitset's words below it,
// so a receiver that gets a source in order keeps no word at all, and one
// with gaps keeps the words from its oldest gap to its newest sequence. The prefix only ever advances. The zero
// SeqSet is empty.
//
// It backs the reception state of both protocols: rrmp keeps one per
// source heard from, rmtp's single-source nodes keep one each.
type SeqSet struct {
	// prefix is the largest k with every sequence in [1, k] marked.
	prefix uint64
	// base is the first sequence the bitset covers (64-aligned; set at the
	// first mark, lowered by a mark below it, raised past words the prefix
	// covers); bit (seq-base) of bits[(seq-base)/64] is set iff seq was
	// marked. Every sequence from 1 to below base is within the prefix
	// once base has been raised.
	base   uint64
	bits   []uint64
	marked bool
}

// Prefix returns the largest k such that every sequence in [1, k] is in
// the set.
func (s *SeqSet) Prefix() uint64 { return s.prefix }

// Has reports whether seq was marked. Sequences start at 1.
func (s *SeqSet) Has(seq uint64) bool {
	if seq-1 < s.prefix {
		return true
	}
	if !s.marked || seq < s.base {
		return false
	}
	i := seq - s.base
	w := i >> 6
	return w < uint64(len(s.bits)) && s.bits[w]&(1<<(i&63)) != 0
}

// Mark adds seq to the set, then advances the prefix over it and what it
// joins, and drops the words the prefix now covers.
func (s *SeqSet) Mark(seq uint64) {
	if seq-1 < s.prefix {
		return
	}
	if seq == s.prefix+1 && len(s.bits) == 0 {
		// In order with nothing marked past the prefix: the prefix alone
		// holds the set, so no word is made, and the next mark past a gap
		// places the bitset afresh.
		s.prefix = seq
		s.marked = false
		return
	}
	if !s.marked {
		s.base = seq &^ 63
		s.marked = true
	}
	if seq < s.base {
		// A sequence below the first-ever mark's word (an early loss
		// recovered late): prepend words so the bitset still covers it.
		shift := (s.base - seq + 63) >> 6
		grown := make([]uint64, uint64(len(s.bits))+shift)
		copy(grown[shift:], s.bits)
		s.bits = grown
		s.base -= shift << 6
	}
	i := seq - s.base
	for uint64(len(s.bits)) <= i>>6 {
		s.bits = append(s.bits, 0)
	}
	s.bits[i>>6] |= 1 << (i & 63)
	if seq != s.prefix+1 {
		return
	}
	for s.Has(s.prefix + 1) {
		s.prefix++
	}
	// Words wholly at or below the prefix hold nothing Has needs.
	if drop := (s.prefix + 1 - s.base) >> 6; drop > 0 {
		n := copy(s.bits, s.bits[drop:])
		clear(s.bits[n:])
		s.bits = s.bits[:n]
		s.base += drop << 6
	}
}
