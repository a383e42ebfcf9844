// Package rng holds Source, the math/rand generator as a concrete value
// type. Its streams are bit for bit those of rand.NewSource, so
// rand.New(rng.New(seed)) draws exactly what rand.New(rand.NewSource(seed))
// draws, and every golden trace, job ID and Result that hangs on a seed
// stays as it was. What changes is the cost: a caller that holds a
// *Source, not a rand.Source, gets its Int63 and Uint64 inlined and can
// take a run of draws in one Int31s call, and Seed runs the seeding
// generator as four independent chains, about five times faster than
// math/rand's.
package rng

import "math/rand"

const (
	length = 607 // the lagged Fibonacci register's length
	lag    = 273 // its short lag

	modulus = 1<<31 - 1 // the seeding Lehmer generator: x ← x·48271 mod 2³¹−1
	factor  = 48271
	discard = 20 // iterates the seeding drops before the first word

	chains = 4                              // independent seeding chains
	block  = (length + chains - 1) / chains // register words per chain
)

// Source is math/rand's additive lagged Fibonacci generator (lags 607
// and 273): x[n] = x[n−607] + x[n−273] mod 2⁶⁴, seeded as
// rand.NewSource seeds it. The zero value is not seeded; build one with
// New. It implements rand.Source64.
type Source struct {
	tap, feed int
	vec       [length]int64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Int63 returns a non-negative 63-bit value: the next Uint64 with its top
// bit cleared, as math/rand's source returns it.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int31s sets dst[i], in order, to the next len(dst) draws' top 31
// bits: the values of len(dst) calls to rand.Rand.Int31. It keeps the
// register's indices in registers across the run, which a loop of
// inlined Uint64 calls cannot while it also stores through a slice.
func (s *Source) Int31s(dst []int) {
	tap, feed := s.tap, s.feed
	v := &s.vec
	for i := range dst {
		tap--
		if tap < 0 {
			tap += length
		}
		feed--
		if feed < 0 {
			feed += length
		}
		x := v[feed] + v[tap]
		v[feed] = x
		dst[i] = int(uint64(x) << 1 >> 33)
	}
	s.tap, s.feed = tap, feed
}

// Seed resets the stream to rand.NewSource(seed)'s. Register word i is
// built from the Lehmer iterates 21+3i, 22+3i and 23+3i of the reduced
// seed x. Iterate k is x·48271^k mod 2³¹−1, so the register is filled as
// four blocks of words by four independent chains, each starting at its
// block's first iterate: the serial chain of math/rand's seeding, run
// four wide.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - lag

	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	a, b, c, d := x*chainStart[0]%modulus, x*chainStart[1]%modulus, x*chainStart[2]%modulus, x*chainStart[3]%modulus

	// A word is its chain's next three iterates packed as math/rand packs
	// them (<<40, <<20, <<0, xored), masked with the cooked word.
	v := &s.vec
	for i := 0; i < block; i++ {
		a1, b1, c1, d1 := next(a), next(b), next(c), next(d)
		a2, b2, c2, d2 := next(a1), next(b1), next(c1), next(d1)
		a, b, c, d = next(a2), next(b2), next(c2), next(d2)
		v[i] = int64(a1<<40^a2<<20^a) ^ cooked[i]
		v[block+i] = int64(b1<<40^b2<<20^b) ^ cooked[block+i]
		v[2*block+i] = int64(c1<<40^c2<<20^c) ^ cooked[2*block+i]
		if 3*block+i < length { // the last block is one word short
			v[3*block+i] = int64(d1<<40^d2<<20^d) ^ cooked[3*block+i]
		}
	}
}

// next is one Lehmer step, x·48271 mod 2³¹−1 for 0 < x < 2³¹−1: the
// product is below 2⁴⁷, and 2³¹ ≡ 1 folds its high bits onto its low
// ones, leaving at most one modulus to subtract. math/rand computes the
// same value with Schrage's division-based method.
func next(x uint64) uint64 {
	t := x * factor
	t = t&modulus + t>>31
	if t >= modulus {
		t -= modulus
	}
	return t
}

var (
	// cooked is the word math/rand masks each seeded register word with
	// (its rngCooked table).
	cooked [length]int64
	// chainStart[c] is 48271^k mod 2³¹−1 for the first iterate k that
	// chain c consumes.
	chainStart [chains]uint64
)

func init() {
	for c := range chainStart {
		p := uint64(1)
		for range discard + 3*block*c {
			p = next(p)
		}
		chainStart[c] = p
	}

	// Recover the cooked table from math/rand's public stream rather than
	// copying it. With cooked still zero, Seed(1) leaves the bare seed-1
	// words in vec; math/rand's seed-1 register v is those words masked
	// with cooked, and its first 607 outputs o determine v: draw j adds
	// v[333−j mod 607] and the word at 606−j, which is still v's for
	// j < 273 and output j−273 after that.
	ref, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		panic("rng: math/rand's source is not a rand.Source64")
	}
	var o, v [length]int64
	for j := range o {
		o[j] = int64(ref.Uint64())
	}
	const feed = length - lag // 334: the first draw's feed index + 1
	for j := feed; j < length; j++ {
		v[length+feed-1-j] = o[j] - o[j-lag]
	}
	for j := 0; j < lag; j++ {
		v[feed-1-j] = o[j] - v[length-1-j]
	}
	for j := lag; j < feed; j++ {
		v[feed-1-j] = o[j] - o[j-lag]
	}
	var bare Source
	bare.Seed(1)
	for i := range cooked {
		cooked[i] = v[i] ^ bare.vec[i]
	}
}
