package approx

import "math"

// Batch decompositions: the per-value constants the op-major encode path
// memoizes so each packet's probabilistic decision reduces to one integer
// compare against a precomputed hash column. Every branch here mirrors
// hash.Below exactly — including the float saturation near p = 1 — so
// batch and scalar encoders decide identically bit for bit.

// RandomizedParts decomposes EncodeRandomized for batch callers: for
// value v and coin hash h (the g(pktID, 1<<20) draw EncodeRandomized
// makes), the resulting code is
//
//	lo+1  if always or h < coinThr,
//	lo    otherwise,
//
// clamped to MaxCode(). Callers memoize the parts per distinct v and
// stream packets through a precomputed coin-hash column.
func (c *MultCompressor) RandomizedParts(v float64) (lo uint64, coinThr uint64, always bool) {
	if v <= 1 {
		return 0, 0, false
	}
	exact := math.Log(v) / c.lnB
	if exact < 0 {
		exact = 0
	}
	fl := math.Floor(exact)
	frac := exact - fl
	lo = uint64(fl)
	switch {
	case frac <= 0:
		return lo, 0, false
	case frac >= 1:
		return lo, 0, true
	}
	t := math.Floor(frac * (1 << 32) * (1 << 32))
	if t >= math.MaxUint64 {
		return lo, 0, true
	}
	return lo, uint64(t), false
}

// MaxCode exposes the saturation code batch callers clamp against when
// applying RandomizedParts.
func (c *MultCompressor) MaxCode() uint64 { return c.maxCode() }
