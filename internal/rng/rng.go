// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Determinism matters: every
// experiment in the paper reproduction must produce identical instruction
// streams for a given (benchmark, seed) pair so that configurations can be
// compared against each other cycle-for-cycle.
//
// The generator is xorshift128+, which is more than adequate for workload
// synthesis and far cheaper than math/rand's default source.
package rng

import "math"

// Source is a deterministic xorshift128+ generator. The zero value is not
// usable; construct with New.
type Source struct {
	s0, s1 uint64
}

// New returns a Source seeded from the given seed. Two distinct seeds give
// uncorrelated streams for our purposes (the seed is diffused through
// splitmix64 before use).
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator state from seed using splitmix64 diffusion so
// that small seeds (0, 1, 2, ...) still yield well-mixed states.
func (s *Source) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0 = next()
	s.s1 = next()
	if s.s0 == 0 && s.s1 == 0 {
		s.s0 = 1
	}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	x, y := s.s0, s.s1
	s.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	s.s1 = x
	return x + y
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		// Power-of-two bound: the mask equals the modulo bit for bit, and
		// skips the 64-bit division (n is a variable here, so the compiler
		// cannot strength-reduce it).
		return int(s.Uint64() & uint64(n-1))
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// U53 returns the next draw's 53-bit mantissa sample — the integer u>>11
// that Float64 scales into [0, 1). Exposed so hot callers can compare the
// draw against Threshold-precomputed bounds in the integer domain.
func (s *Source) U53() uint64 {
	return s.Uint64() >> 11
}

// Threshold converts a probability p in [0, 1] into the integer bound t
// such that U53() < t holds exactly when Float64() < p holds for the same
// draw: Float64() < p over the 53-bit sample u is, in exact arithmetic,
// u < p*2^53 (both scalings by 2^53 are exact for p in [0, 1]), and for an
// integer left side that is u < ceil(p*2^53). p <= 0 maps to 0 (never).
func Threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BoolT returns true with the probability encoded by Threshold.
func (s *Source) BoolT(t uint64) bool {
	return s.U53() < t
}

// Geometric returns a sample from a geometric distribution with the given
// mean (mean >= 1). It is used for dependency distances and burst lengths.
// The returned value is at least 1.
func (s *Source) Geometric(mean float64) int {
	return s.GeometricT(GeometricThreshold(mean))
}

// GeometricThreshold precomputes the per-trial threshold for GeometricT,
// hoisting the 1/mean division out of hot loops that sample the same
// distribution repeatedly. The zero threshold encodes mean <= 1 (the
// sample is always 1, no random draw).
//
// The trial Float64() < p over the 53-bit mantissa draw u>>11 is, in exact
// arithmetic, u>>11 < p*2^53 (both scalings by 2^53 are exact), and for an
// integer left side that is u>>11 < ceil(p*2^53) — so a single integer
// compare per trial reproduces the float comparison bit for bit.
func GeometricThreshold(mean float64) uint64 {
	if mean <= 1 {
		return 0
	}
	return uint64(math.Ceil((1 / mean) * (1 << 53)))
}

// GeometricMaxTrials caps the trial loop in GeometricT (and therefore
// Geometric): a sample never exceeds this value, and a capped sample
// consumes exactly GeometricMaxTrials-1 draws. The cap only binds when the
// per-trial success probability is pathologically small (mean ≳ 2^53 — a
// threshold of 0 draws nothing at all) and exists so a corrupt or
// adversarial threshold cannot spin the generator forever. The cap value
// is part of the draw-count contract: changing it would silently shift
// every downstream draw, so it is pinned by TestGeometricTCapPinned.
const GeometricMaxTrials = 1 << 20

// GeometricT samples the geometric distribution whose threshold t was
// produced by GeometricThreshold.
func (s *Source) GeometricT(t uint64) int {
	if t == 0 {
		return 1
	}
	n := 1
	for s.Uint64()>>11 >= t {
		n++
		if n >= GeometricMaxTrials {
			break
		}
	}
	return n
}

// Range returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Source) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}
