// Package xrand provides a tiny, fast, deterministic pseudo-random number
// generator (splitmix64 seeding an xoshiro256**-style state) used by the
// traffic generators and fault injectors. Simulation runs must be exactly
// reproducible from a seed, so the simulator never touches global or
// time-seeded randomness.
package xrand

// RNG is a deterministic pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-derives the generator's state from seed in place, producing the
// exact stream a fresh New(seed) would: the reseed hook simulation arenas
// use to reuse one RNG across runs without allocating.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion of the seed into the full state, as recommended
	// by the xoshiro authors to avoid correlated low-entropy states.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free-ish reduction is overkill for
	// simulator workloads; modulo bias at n << 2^64 is negligible, but use
	// rejection to keep distributions exactly uniform for property tests.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
