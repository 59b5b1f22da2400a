package hash

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256++) used by the simulator and the experiment harness. We own
// the implementation so that experiment outputs are stable across Go
// releases (math/rand's stream is not guaranteed stable for all methods).
//
// RNG is NOT used on the simulated data plane: switches only ever consume
// global hash functions (Global), mirroring the paper's hardware model.
type RNG struct {
	s [4]uint64
}

// NewRNG seeds a generator. Any seed, including zero, is valid: the state is
// expanded through splitmix64 as recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		x += golden
		r.s[i] = Mix64(x)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return Unit(r.Uint64()) }

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hash: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0,n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), via inverse transform sampling. Scale by 1/λ for rate λ.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal value (Box–Muller, one branch).
func (r *RNG) NormFloat64() float64 { return BoxMuller(r.NormUniforms()) }

// NormUniforms draws the two uniforms NormFloat64 consumes, u1 in (0,1)
// (a zero is drawn again) and u2 in [0,1), leaving the stream where
// NormFloat64 would. A caller that needs only some of its normals draws
// these for every value and pays BoxMuller for the ones it keeps.
func (r *RNG) NormUniforms() (u1, u2 float64) {
	u1 = r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	return u1, r.Float64()
}

// BoxMuller maps NormUniforms' pair to a standard normal value.
func BoxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Split derives an independent generator, useful for giving each simulated
// host or experiment arm its own stream while keeping global determinism.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Clone copies the generator at its current state: the clone and the
// original emit identical streams from here on, without affecting each
// other. Snapshots of sketch-bearing state use this so a copied sketch
// evolves exactly as the original would have.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}
