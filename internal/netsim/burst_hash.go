package netsim

import (
	"repro/internal/topology"
	"repro/internal/wire"
)

// HashBurstLoss is the Gilbert–Elliott burst channel in shard-safe form.
// Each (from, to) pair carries its own two-state chain, exactly like
// GilbertElliott, but instead of consuming one shared rng in global send
// order the chain advances on per-pair counter-hash draws — the
// splitmix64-finalizer scheme HashLoss uses, widened to include the
// receiver. Draw j on pair (f, t) is a pure function of (Seed, f, t, j),
// so a pair's loss pattern depends only on how many packets f has sent to
// t — state a single shard loop owns — and the model gives byte-identical
// loss patterns at any shard count.
//
// Per packet of a covered type the chain consumes exactly two draws, in
// GilbertElliott's order: draw 2k advances the state (Bernoulli PGB from
// Good, PBG from Bad), draw 2k+1 draws the loss from the new state (PGood
// or PBad). If NewHashBurstLoss's only is non-empty, loss applies
// exclusively to the listed types (other types consume no draw).
type HashBurstLoss struct {
	PGood, PBad float64
	PGB, PBG    float64
	Seed        uint64
	exempt      lossless

	// st[f][t] packs pair (f, t)'s chain as drawCounter<<1 | badBit. The
	// outer slice is pre-sized at construction; a sender's row is
	// allocated lazily on its first draw, from its own shard loop (Drop
	// runs on the sending shard), so rows for nodes that never send a
	// covered type — everyone but the publisher under an only={DATA}
	// model — cost nothing even at 1M members.
	st [][]uint64
	n  int
}

// NewHashBurstLoss builds a HashBurstLoss covering nodes [0, n).
func NewHashBurstLoss(seed uint64, pGood, pBad, pGB, pBG float64, n int, only map[wire.Type]bool) *HashBurstLoss {
	return &HashBurstLoss{
		PGood: pGood, PBad: pBad,
		PGB: pGB, PBG: pBG,
		Seed: seed, exempt: losslessOutside(only),
		st: make([][]uint64, n), n: n,
	}
}

// draw returns uniform [0,1) draw k of pair (from, to): the HashLoss
// splitmix64 finalizer over (Seed, from, to, k), with a distinct odd
// multiplier per coordinate.
func (h *HashBurstLoss) draw(from, to topology.NodeID, k uint64) float64 {
	z := h.Seed + 0x9e3779b97f4a7c15*(uint64(from)+1) + 0xbf58476d1ce4e5b9*(uint64(to)+1) + 0x94d049bb133111eb*(k+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) * (1.0 / (1 << 53))
}

// Drop implements LossModel.
func (h *HashBurstLoss) Drop(from, to topology.NodeID, t wire.Type) bool {
	if h.exempt[t] {
		return false
	}
	row := h.st[from]
	if row == nil {
		row = make([]uint64, h.n)
		h.st[from] = row
	}
	packed := row[to]
	k, bad := packed>>1, packed&1 == 1
	// Advance the channel state first, then draw loss from the new state
	// (GilbertElliott's convention).
	if bad {
		if h.draw(from, to, k) < h.PBG {
			bad = false
		}
	} else {
		if h.draw(from, to, k) < h.PGB {
			bad = true
		}
	}
	k++
	p := h.PGood
	if bad {
		p = h.PBad
	}
	lost := h.draw(from, to, k) < p
	k++
	var badBit uint64
	if bad {
		badBit = 1
	}
	row[to] = k<<1 | badBit
	return lost
}

var _ LossModel = (*HashBurstLoss)(nil)
