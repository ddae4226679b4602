// Package rng provides a small, deterministic random number generator used
// throughout the simulator and the randomized protocol logic.
//
// Every run of an experiment derives all of its randomness from a single
// root seed. Independent components (members, loss models, workloads) obtain
// their own streams via Split, so adding a new consumer of randomness does
// not perturb the draws seen by existing consumers. This property is what
// makes simulation results reproducible and diffable across code changes.
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference construction by Blackman and Vigna. It is not cryptographically
// secure and must never be used for security purposes.
package rng

import "math/bits"

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; give each goroutine (or each simulated member) its own
// Source via Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream defined by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro256** must not be seeded with the all-zero state. splitmix64
	// cannot emit four consecutive zeros, but guard anyway so Reseed is
	// total for every input.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives an independent child stream identified by label. Children
// with distinct labels are statistically independent of each other and of
// the parent's future output. Split does not advance the parent stream, so
// the set of labels used elsewhere never changes this stream's draws.
func (r *Source) Split(label uint64) *Source {
	// Mix the current state with the label through splitmix64 so that
	// (seed, label) pairs map to well-separated child states.
	mix := r.s[0] ^ bits.RotateLeft64(r.s[2], 23) ^ (label * 0x9e3779b97f4a7c15)
	_, out := splitmix64(mix)
	return New(out ^ label)
}

// SplitInto derives the identical child stream Split(label) would return,
// but writes it into dst instead of allocating a new Source. Batch setup
// paths (one backing slice for a million member streams) use it so
// per-member stream construction costs zero heap allocations; dst's draws
// are draw-for-draw equal to Split(label)'s.
func (r *Source) SplitInto(label uint64, dst *Source) {
	mix := r.s[0] ^ bits.RotateLeft64(r.s[2], 23) ^ (label * 0x9e3779b97f4a7c15)
	_, out := splitmix64(mix)
	dst.Reseed(out ^ label)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place uniformly at random.
func (r *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
