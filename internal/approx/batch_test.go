package approx

import (
	"math"
	"testing"

	"repro/internal/hash"
)

// TestRandomizedPartsMatchEncodeRandomized pins the memoizable
// decomposition to the scalar encoder for every decision path: v <= 1,
// integer exponents (frac = 0), fractional exponents, and saturation.
func TestRandomizedPartsMatchEncodeRandomized(t *testing.T) {
	g := hash.NewGlobal(0xBA7C4)
	for _, cfg := range []struct {
		eps  float64
		bits int
	}{{0.025, 8}, {0.0025, 16}, {0.4, 3}} {
		c, err := NewMultCompressor(cfg.eps, cfg.bits)
		if err != nil {
			t.Fatal(err)
		}
		vals := []float64{0, 0.5, 1, 1.0000001, 2, 3.7, 1000, 1e6, 1e12, 1e300,
			c.base, c.base * c.base, math.Pow(c.base, 7)}
		var h [1]uint64
		for _, v := range vals {
			lo, coinThr, always := c.RandomizedParts(v)
			for pkt := uint64(0); pkt < 500; pkt++ {
				want := c.EncodeRandomized(v, g, pkt)
				code := lo
				// The coin hash EncodeRandomized draws via g.Act(pkt, 1<<20, frac).
				g.ActHashColumn(h[:], []uint64{pkt}, 1<<20)
				if always || h[0] < coinThr {
					code++
				}
				if code > c.MaxCode() {
					code = c.MaxCode()
				}
				if code != want {
					t.Fatalf("eps=%v bits=%d v=%v pkt=%d: parts give %d, scalar %d",
						cfg.eps, cfg.bits, v, pkt, code, want)
				}
			}
		}
	}
}
