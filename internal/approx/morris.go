package approx

import (
	"math"

	"repro/internal/hash"
)

// Morris is the randomized counter of Morris [55], used by PINT's
// randomized-counting technique (§4.3): when the aggregate over a path
// (e.g. the number of high-latency hops, or an end-to-end sum) needs more
// bits than the budget allows, the packet instead carries a tiny counter
// that is incremented *probabilistically* so its expectation tracks the
// true count.
//
// The counter stores c and represents n ≈ (a^c - 1)/(a - 1) where
// a = 1 + 2ε² controls the accuracy/width trade-off: estimates are within a
// (1+ε) factor with constant probability, using only O(log log n / ε) bits.
type Morris struct {
	a float64 // growth base > 1
	c uint64  // stored exponent
	b int     // counter width in bits
}

// NewMorris creates a counter with relative accuracy parameter eps and the
// given bit width. Smaller eps means larger (more accurate, wider) codes.
func NewMorris(eps float64, bits int) *Morris {
	return &Morris{a: MorrisBase(eps), b: bits}
}

// Increment advances the counter by one *logical* unit: the stored exponent
// increases with probability a^-c. Randomness comes from the global hash on
// (pktID, salt) so a simulated switch needs no RNG; callers that do not care
// pass any fresh salt per call.
func (m *Morris) Increment(g hash.Global, pktID, salt uint64) {
	m.c = MorrisNextCode(m.a, m.b, m.c, g, pktID, salt)
}

// MorrisNextCode returns the code after one probabilistic increment of a
// Morris counter with growth base a and width bits — the allocation-free
// form of (*Morris).Increment for compiled hot paths that cannot afford a
// heap counter per packet. The coin is the same global-hash draw.
func MorrisNextCode(a float64, bits int, code uint64, g hash.Global, pktID, salt uint64) uint64 {
	max := uint64(1)<<uint(bits) - 1
	if code >= max {
		return code // saturated
	}
	p := math.Pow(a, -float64(code))
	if hash.Below(g.ValueDigest(salt, pktID, 64), p) {
		return code + 1
	}
	return code
}

// MorrisBase returns the growth base a = 1 + 2ε² for an accuracy parameter,
// clamped above 1 (the precomputation MorrisNextCode callers hoist out of
// their per-packet loop).
func MorrisBase(eps float64) float64 {
	a := 1 + 2*eps*eps
	if a <= 1 {
		a = 1 + 1e-9
	}
	return a
}

// Code returns the stored exponent (what would travel on the packet).
func (m *Morris) Code() uint64 { return m.c }

// SetCode loads a received exponent (what the sink recovers).
func (m *Morris) SetCode(c uint64) { m.c = c }

// Estimate returns the unbiased count estimate (a^c - 1)/(a - 1).
func (m *Morris) Estimate() float64 {
	return (math.Pow(m.a, float64(m.c)) - 1) / (m.a - 1)
}
