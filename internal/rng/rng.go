// Package rng is the one way a seed becomes a *rand.Rand. New(seed)
// draws exactly what rand.New(rand.NewSource(seed)) draws, but seeds in
// constant time and fills math/rand's 607-word state on first touch, so a
// workload that draws a few dozen numbers pays for a few dozen words.
//
// math/rand's Seed runs 1,841 sequential Lehmer steps x ← 48271·x mod
// (2³¹−1) and XORs three of them into each word of rngCooked. Step k from
// the reduced seed x₀ is x₀·48271ᵏ mod (2³¹−1), so with a table of the
// powers every word is three independent multiplies, computed when the
// generator first reads it.
package rng

//go:generate go run gen_cooked.go $GOROOT/src/math/rand

import "math/rand"

const (
	rngLen   = 607             // words of state
	rngTap   = 273             // lag of the tap behind the feed
	int32max = 1<<31 - 1       // the Lehmer modulus, a Mersenne prime
	steps    = 20 + 3*rngLen   // Lehmer steps math/rand's Seed takes: 1,841
	lazy     = rngLen - rngTap // draws that read a word for the first time
)

// pow[k] is 48271ᵏ mod (2³¹−1).
var pow = func() (p [steps + 1]uint32) {
	p[0] = 1
	for k := 1; k <= steps; k++ {
		p[k] = uint32(uint64(p[k-1]) * 48271 % int32max)
	}
	return p
}()

// source is math/rand's additive lagged-Fibonacci generator with a lazily
// filled state: while n < lazy, each draw computes the words it reads
// for the first time before using them.
type source struct {
	x0        uint64 // the reduced seed, in [1, 2³¹−2]
	n         int    // draws made, counted up to lazy
	tap, feed int
	vec       [rngLen]int64
}

// New returns a generator that draws exactly what
// rand.New(rand.NewSource(seed)) draws. Its Seed method reseeds it in
// place in constant time and allocates nothing, so a worker can hold one
// generator for its whole seed stream.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed reduces seed by math/rand's rules and rewinds the generator.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n, s.tap, s.feed = uint64(seed), 0, 0, lazy
}

// state is the Lehmer state after k steps from x0: one 62-bit product
// folded once modulo the Mersenne prime. It is never 0 (the modulus is
// prime and both factors are below it), so one conditional subtraction
// finishes the fold.
func (s *source) state(k int) int64 {
	p := s.x0 * uint64(pow[k])
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return int64(p)
}

// word is vec[i] as math/rand's Seed leaves it.
func (s *source) word(i int) int64 {
	k := 21 + 3*i
	return rngCooked[i] ^ s.state(k)<<40 ^ s.state(k+1)<<20 ^ s.state(k+2)
}

// Uint64 is math/rand's rngSource.Uint64. Draw d (1-based) reads
// vec[lazy−d] first for d ≤ lazy and vec[rngLen−d] first for d ≤ rngTap;
// every later read finds a word an earlier draw filled.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < lazy {
		s.n++
		s.vec[s.feed] = s.word(s.feed)
		if s.n <= rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is Uint64 with the top bit cleared, as in math/rand.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
