package approx

import "math/bits"

// The integer path of Encode, as a switch's match-action stage computes a
// code: the value is matched against ranges and the range names the code
// (§4.3, Appendix C), with no logarithm taken per value.
//
// A value's octave (its leading bit) and the s bits below it pick a
// bucket. s is chosen so that a bucket spans less than a code step, so at
// most one code boundary falls inside it; the bucket stores its top code
// and the first value that carries it, and a lookup is one compare. The
// ranges are cut where Encode(float64(v)) itself steps, found by binary
// search over the integers, so the two agree on every uint64. Octaves
// from the first one Encode saturates at are not stored.

// matchMaxEntries caps a table at 1 MB. Compressors whose code step is too
// fine for it (ε below ~0.001) keep the float path; every latency
// compressor the repo builds needs under a thousand entries.
const matchMaxEntries = 1 << 16

type matchTable struct {
	sub uint         // bucket bits below the leading bit
	sat int          // first octave that encodes wholly to maxCode
	max uint64       // maxCode
	ent []matchEntry // bucket (octave<<sub | next sub bits) → its codes
}

// matchEntry: every value of the bucket below lo encodes to code-1, every
// value from lo up to code (lo is 0 when the whole bucket is code).
type matchEntry struct {
	lo, code uint64
}

// EncodeUint is Encode(float64(v)) for an integer value, computed by range
// match. The table is built on the first call, so a compressor that only
// decodes never builds it.
func (c *MultCompressor) EncodeUint(v uint64) uint64 {
	c.once.Do(c.buildMatch)
	if t := c.match; t != nil {
		return t.code(v)
	}
	return c.Encode(float64(v))
}

func (t *matchTable) code(v uint64) uint64 {
	e := bits.Len64(v|1) - 1 // 0 and 1 share bucket 0: both encode to 0
	if e >= t.sat {
		return t.max
	}
	en := t.ent[e<<t.sub|int(v<<uint(63-e)>>(63-t.sub))&(1<<t.sub-1)]
	if v < en.lo {
		return en.code - 1
	}
	return en.code
}

// buildMatch builds c.match, or leaves it nil when the table would pass
// matchMaxEntries or Encode is not monotone over some bucket.
func (c *MultCompressor) buildMatch() {
	enc := func(v uint64) uint64 { return c.Encode(float64(v)) }
	t := &matchTable{sat: 64, max: c.maxCode()}
	for e := 0; e < 64; e++ {
		if enc(1<<uint(e)) == t.max {
			t.sat = e
			break
		}
	}
	// A bucket spans at most a factor 1+2^-sub; start where that is half
	// a code step, and refine if a bucket still holds two boundaries.
	for t.sub = 0; 1/float64(uint64(1)<<t.sub) > (c.base-1)/2; t.sub++ {
	}
	for ; t.sat<<t.sub <= matchMaxEntries; t.sub++ {
		if t.fill(enc) {
			c.match = t
			return
		}
	}
}

// fill cuts every stored bucket at its boundary, reporting false if a
// bucket holds more than one.
func (t *matchTable) fill(enc func(uint64) uint64) bool {
	t.ent = make([]matchEntry, t.sat<<t.sub)
	for e := 0; e < t.sat; e++ {
		for b := 0; b < 1<<t.sub; b++ {
			lo, hi, ok := t.bucket(e, b)
			if !ok {
				continue // finer than the integers: no value lands here
			}
			cl, ch := enc(lo), enc(hi)
			en := &t.ent[e<<t.sub|b]
			switch {
			case cl == ch:
				en.code = ch
			case ch == cl+1:
				if en.lo = boundary(enc, lo, hi, cl); en.lo == 0 {
					return false
				}
				en.code = ch
			default:
				return false
			}
		}
	}
	return true
}

// boundary returns the first value of (lo, hi] that encodes to cl+1, given
// enc(lo) = cl and enc(hi) = cl+1, or 0 if a value between encodes to
// neither.
func boundary(enc func(uint64) uint64, lo, hi, cl uint64) uint64 {
	for lo+1 < hi {
		switch m := lo + (hi-lo)/2; enc(m) {
		case cl:
			lo = m
		case cl + 1:
			hi = m
		default:
			return 0
		}
	}
	return hi
}

// bucket returns the integers octave e's bucket b covers, [lo, hi], or
// false when the bucket is narrower than one integer and none maps to it.
func (t *matchTable) bucket(e, b int) (lo, hi uint64, ok bool) {
	if ue, us := uint(e), t.sub; ue >= us {
		lo = 1<<ue | uint64(b)<<(ue-us)
		return lo, lo + 1<<(ue-us) - 1, true
	}
	if step := 1<<(t.sub-uint(e)) - 1; b&step != 0 {
		return 0, 0, false
	}
	lo = 1<<uint(e) | uint64(b)>>(t.sub-uint(e))
	return lo, lo, true
}
