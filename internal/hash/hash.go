// Package hash provides the deterministic hashing substrate used throughout
// the PINT reproduction.
//
// PINT (§4.1) relies on global hash functions — functions known to every
// switch and to the offline Inference Module — to coordinate probabilistic
// decisions without any communication:
//
//   - a query-selection hash q(pkt) that maps a packet ID to [0,1) so all
//     switches agree on which query set the packet serves,
//   - an act-decision hash g(pkt, hop) that decides whether the hop at a
//     given position samples/xors the packet's digest,
//   - a value hash h(value, pkt) that compresses a value (e.g. a 32-bit
//     switch ID) to the query's b-bit budget.
//
// All of these must be computable both on the (simulated) data plane and by
// the Inference Module, so they are pure functions of a shared 64-bit seed
// and their integer arguments. The implementation is a from-scratch
// splitmix64-style mixer with strong avalanche behaviour; no external
// dependencies are used.
package hash

import "math"

// Seed identifies one instantiation of the global hash family. Two Seeds
// yield independent-looking hash functions; the same Seed yields identical
// functions on every component of the system (switch encoders, recording
// module, inference module), which is exactly the coordination property
// PINT needs.
type Seed uint64

const (
	// golden is 2^64 / phi, the canonical odd constant for Fibonacci hashing.
	golden = 0x9e3779b97f4a7c15
	mixA   = 0xbf58476d1ce4e5b9
	mixB   = 0x94d049bb133111eb
)

// Mix64 applies the splitmix64 finalizer, a bijective mixing permutation on
// 64-bit integers with full avalanche (every input bit flips every output
// bit with probability ~1/2).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixA
	x ^= x >> 27
	x *= mixB
	x ^= x >> 31
	return x
}

// ShardOf maps a flow key to a shard index in [0, shards). It is THE
// flow→shard routing function of the collector tier: pipeline.Sink routes
// ingest with it and wire's fused decode-and-shard pass computes it during
// unmarshal, so the two must never diverge — a packet staged under one
// rule and recorded under another would split a flow across shards.
// Mix64 keeps sequential flow keys balanced; any pure function of the
// flow key preserves determinism.
func ShardOf(flow, shards uint64) uint64 {
	return Mix64(flow) % shards
}

// Hash1 hashes a single 64-bit word under the seed.
func (s Seed) Hash1(a uint64) uint64 {
	return Mix64(uint64(s) ^ Mix64(a*golden+1))
}

// Hash2 hashes a pair of 64-bit words under the seed. It is the workhorse
// for g(pkt, hop) and h(value, pkt) style functions.
func (s Seed) Hash2(a, b uint64) uint64 {
	h := uint64(s) ^ golden
	h = Mix64(h ^ (a*golden + 1))
	h = Mix64(h ^ (b*mixA + 2))
	return h
}

// Hash3 hashes a triple of 64-bit words under the seed.
func (s Seed) Hash3(a, b, c uint64) uint64 {
	h := uint64(s) ^ golden
	h = Mix64(h ^ (a*golden + 1))
	h = Mix64(h ^ (b*mixA + 2))
	h = Mix64(h ^ (c*mixB + 3))
	return h
}

// HashString hashes a string without allocating.
func (s Seed) HashString(str string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset) ^ uint64(s)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= prime
	}
	return Mix64(h)
}

// Derive produces a sub-seed for an independent hash function. PINT uses
// several global functions (q, g, h, fragment selection, layer selection);
// each is derived from one master seed with a distinct tag so they behave
// independently.
func (s Seed) Derive(tag uint64) Seed {
	return Seed(Mix64(uint64(s) + tag*golden + 0x6a09e667f3bcc909))
}

// Unit maps a 64-bit hash to the half-open unit interval [0,1). The paper
// phrases the coordination decisions as comparisons of real-valued hashes
// against probabilities; on hardware this is a comparison of an M-bit hash
// against floor((2^M-1)·p) (footnote 5). Unit is the analysis-friendly view;
// Below is the hardware-faithful integer comparison.
func Unit(h uint64) float64 {
	// Use the top 53 bits so the value is exactly representable.
	return float64(h>>11) / (1 << 53)
}

// Below reports whether hash h falls below probability p, i.e. whether the
// event of probability p "fires". It compares integers exactly as a switch
// would compare an M-bit hash register against a precomputed threshold.
func Below(h uint64, p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	// threshold = floor(2^64 * p), computed carefully to avoid overflow at
	// p close to 1 (math.MaxUint64 cannot be represented exactly in float64).
	t := math.Floor(p * (1 << 32) * (1 << 32))
	if t >= math.MaxUint64 {
		return true
	}
	return h < uint64(t)
}

// Bits extracts an n-bit digest (n in 1..64) from a 64-bit hash. PINT
// digests are as narrow as a single bit; we take the high bits, which have
// the best mixing.
func Bits(h uint64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return h
	}
	return h >> (64 - uint(n))
}
