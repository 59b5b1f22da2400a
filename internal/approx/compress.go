// Package approx implements PINT's value-approximation toolbox (§4.3) and
// the data-plane arithmetic substitutes of Appendices B and C.
//
// Telemetry values (latencies, utilizations) are too wide for small bit
// budgets, so PINT compresses them:
//
//   - multiplicatively, storing [log_{(1+ε)²} v] so the decoded value is a
//     (1+ε)-approximation of the original,
//   - with randomized rounding ([·]_R) so the *expected* decoded value is
//     exact — eliminating the systematic bias that plain rounding would
//     feed into a congestion-control loop.
//
// It also provides lookup-table log₂/exp₂, the construction of Appendix C
// that lets a match-action pipeline approximate multiplication and division
// it cannot execute natively.
package approx

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/hash"
)

// MultCompressor encodes positive values as quantized logarithms:
// a(v) = [log_{(1+ε)²} v]. Decoding returns (1+ε)²^a, a multiplicative
// (1+ε)²-approximation bracketing the true value within (1±ε) after the
// half-step rounding (§4.3).
type MultCompressor struct {
	base float64 // (1+ε)²
	lnB  float64 // ln base
	bits int     // digest width

	once  sync.Once   // builds match on the first EncodeUint
	match *matchTable // EncodeUint's ranges; nil: Encode's float path
}

// NewMultCompressor builds a compressor with relative error parameter eps
// writing digests of the given width. Widths of 8 bits support ε = 0.025
// for the utilization ranges HPCC needs (§4.3); 16 bits support ε = 0.0025
// for 32-bit values.
func NewMultCompressor(eps float64, bits int) (*MultCompressor, error) {
	if !(0 < eps && eps < 1) {
		return nil, fmt.Errorf("approx: eps %v out of (0,1)", eps)
	}
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("approx: bits %d out of [1,32]", bits)
	}
	b := (1 + eps) * (1 + eps)
	return &MultCompressor{base: b, lnB: math.Log(b), bits: bits}, nil
}

// maxCode is the largest representable exponent index.
func (c *MultCompressor) maxCode() uint64 { return 1<<uint(c.bits) - 1 }

// Encode quantizes v deterministically (nearest exponent). v must be >= 1;
// values below 1 (including 0) map to code 0, which decodes to 1 — callers
// measuring latencies in clock ticks or utilization in basis points satisfy
// this by construction.
func (c *MultCompressor) Encode(v float64) uint64 {
	if v <= 1 {
		return 0
	}
	a := math.Round(math.Log(v) / c.lnB)
	if a < 0 {
		return 0
	}
	if u := uint64(a); u < c.maxCode() {
		return u
	}
	return c.maxCode()
}

// EncodeRandomized quantizes v with randomized rounding [·]_R: floor or
// ceiling chosen with probabilities that make the expected *logarithm*
// exact, eliminating systematic bias (§4.3, "To further eliminate
// systematic error"). The coin is derived from the packet ID through the
// global hash family so switches need no RNG.
func (c *MultCompressor) EncodeRandomized(v float64, g hash.Global, pktID uint64) uint64 {
	if v <= 1 {
		return 0
	}
	exact := math.Log(v) / c.lnB
	if exact < 0 {
		exact = 0
	}
	lo := math.Floor(exact)
	frac := exact - lo
	a := lo
	if g.Act(pktID, 1<<20, frac) { // dedicated "hop" index namespaces the coin
		a = lo + 1
	}
	if u := uint64(a); u < c.maxCode() {
		return u
	}
	return c.maxCode()
}

// Decode returns the value represented by a code: base^a.
func (c *MultCompressor) Decode(code uint64) float64 {
	if code > c.maxCode() {
		code = c.maxCode()
	}
	return math.Pow(c.base, float64(code))
}
