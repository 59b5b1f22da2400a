package approx

import (
	"fmt"
	"math"
	"testing"
)

// matchCompressors are the (ε, bits) pairs the repo constructs: latency
// queries at 0.04 (1-8 bits), 0.1 (6), 0.9 (4) and 0.025 (1-8), and the
// util and HPCC compressors at 0.2, 0.025 and 0.0025 (16 bits).
func matchCompressors(t testing.TB) []*MultCompressor {
	t.Helper()
	var cs []*MultCompressor
	add := func(eps float64, bits ...int) {
		for _, b := range bits {
			c, err := NewMultCompressor(eps, b)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
	}
	add(0.04, 1, 2, 3, 4, 5, 6, 7, 8)
	add(0.025, 1, 2, 3, 4, 5, 6, 7, 8)
	add(0.1, 6)
	add(0.9, 4)
	add(0.2, 4, 5)
	add(0.0025, 16)
	return cs
}

// firstWith returns the smallest v with Encode(float64(v)) >= code, by
// binary search over Encode alone (no table).
func firstWith(c *MultCompressor, code uint64) uint64 {
	lo, hi := uint64(0), ^uint64(0)
	if c.Encode(float64(hi)) < code {
		return hi
	}
	for lo < hi {
		m := lo + (hi-lo)/2
		if c.Encode(float64(m)) >= code {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// TestEncodeUintMatchesEncode holds the range table to Encode(float64(v))
// at every code boundary ±1,024 (found from Encode alone), at both edges
// of every bucket ±1, at every power of two ±1 and on 0..4,096, for every
// compressor the repo constructs. The latency compressors (at most 8
// bits) must take the table, not the float fallback.
func TestEncodeUintMatchesEncode(t *testing.T) {
	for _, c := range matchCompressors(t) {
		name := fmt.Sprintf("base=%.4f/bits=%d", c.base, c.bits)
		check := func(v uint64) {
			if got, want := c.EncodeUint(v), c.Encode(float64(v)); got != want {
				t.Fatalf("%s: EncodeUint(%d) = %d, Encode = %d", name, v, got, want)
			}
		}
		near := func(v, d uint64) {
			for x := v - min(v, d); ; x++ {
				check(x)
				if x == v+min(d, ^uint64(0)-v) {
					break
				}
			}
		}
		check(0)
		tab := c.match
		if c.bits <= 8 && tab == nil {
			t.Fatalf("%s: no range table", name)
		}
		for v := uint64(0); v <= 4096; v++ {
			check(v)
		}
		for e := uint(0); e < 64; e++ {
			near(1<<e, 1)
		}
		near(^uint64(0), 1)
		for code := uint64(1); code <= c.maxCode(); code++ {
			b := firstWith(c, code)
			if b == ^uint64(0) && c.Encode(float64(b)) < code {
				break // codes past here are beyond the uint64 range
			}
			near(b, 1024)
		}
		if tab == nil {
			continue
		}
		for e := 0; e < tab.sat; e++ {
			for b := 0; b < 1<<tab.sub; b++ {
				if lo, hi, ok := tab.bucket(e, b); ok {
					near(lo, 1)
					near(hi, 1)
				}
			}
		}
	}
}

// FuzzEncodeUint holds the range table to Encode(float64(v)) for arbitrary
// values under every compressor the repo constructs, and for arbitrary
// (ε, bits) the constructor accepts.
func FuzzEncodeUint(f *testing.F) {
	f.Add(uint8(0), uint64(0), 0.04, uint8(8))
	f.Add(uint8(1), uint64(8000), 0.04, uint8(8))
	f.Add(uint8(7), uint64(1)<<53+1, 0.5, uint8(3))
	f.Add(uint8(9), ^uint64(0), 0.001, uint8(20))
	cs := matchCompressors(f)
	f.Fuzz(func(t *testing.T, sel uint8, v uint64, eps float64, bits uint8) {
		c := cs[int(sel)%len(cs)]
		if got, want := c.EncodeUint(v), c.Encode(float64(v)); got != want {
			t.Fatalf("base=%v bits=%d: EncodeUint(%d) = %d, Encode = %d", c.base, c.bits, v, got, want)
		}
		if !(eps >= 0.001) || math.IsInf(eps, 0) {
			return // tables finer than this pass the size cap
		}
		d, err := NewMultCompressor(eps, int(bits))
		if err != nil {
			return
		}
		for _, x := range []uint64{v, v / 3, v >> 20} {
			if got, want := d.EncodeUint(x), d.Encode(float64(x)); got != want {
				t.Fatalf("eps=%v bits=%d: EncodeUint(%d) = %d, Encode = %d", eps, bits, x, got, want)
			}
		}
	})
}

func BenchmarkEncodeUint(b *testing.B) {
	c, _ := NewMultCompressor(0.04, 8)
	b.Run("table", func(b *testing.B) {
		var s uint64
		for i := 0; i < b.N; i++ {
			s += c.EncodeUint(uint64(i)*2654435761%40000 + 1)
		}
		matchSink = s
	})
	b.Run("log", func(b *testing.B) {
		var s uint64
		for i := 0; i < b.N; i++ {
			s += c.Encode(float64(uint64(i)*2654435761%40000 + 1))
		}
		matchSink = s
	})
}

var matchSink uint64
