package approx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hash"
)

func TestMultCompressorConstruct(t *testing.T) {
	if _, err := NewMultCompressor(0, 8); err == nil {
		t.Fatal("eps=0 must be rejected")
	}
	if _, err := NewMultCompressor(1.5, 8); err == nil {
		t.Fatal("eps>=1 must be rejected")
	}
	if _, err := NewMultCompressor(0.1, 0); err == nil {
		t.Fatal("bits=0 must be rejected")
	}
	if _, err := NewMultCompressor(0.1, 33); err == nil {
		t.Fatal("bits>32 must be rejected")
	}
	if _, err := NewMultCompressor(0.025, 8); err != nil {
		t.Fatal(err)
	}
}

func TestMultRoundTripError(t *testing.T) {
	// Paper claim (§4.3): 16 bits with ε=0.0025 covers 32-bit values with
	// multiplicative error (1+ε)² of the half-step, i.e. decode/true within
	// (1+ε)^±1 after nearest-rounding of the exponent.
	c, _ := NewMultCompressor(0.0025, 16)
	for _, v := range []float64{1, 2, 10, 1e3, 1e6, 4e9} {
		dec := c.Decode(c.Encode(v))
		ratio := dec / v
		if ratio < 1/(1+0.0026) || ratio > 1+0.0026 {
			t.Fatalf("v=%v decoded %v, ratio %v outside (1±ε)", v, dec, ratio)
		}
	}
}

func TestMultRoundTripErrorProperty(t *testing.T) {
	c, _ := NewMultCompressor(0.025, 8)
	maxV := c.Decode(c.MaxCode())
	f := func(raw uint32) bool {
		v := 1 + math.Mod(float64(raw), maxV) // keep in representable range
		dec := c.Decode(c.Encode(v))
		ratio := dec / v
		return ratio >= 1/(1+0.026) && ratio <= 1.026
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultSmallValuesClampToOne(t *testing.T) {
	c, _ := NewMultCompressor(0.025, 8)
	for _, v := range []float64{0, 0.3, 1} {
		if c.Encode(v) != 0 {
			t.Fatalf("v=%v must encode to 0", v)
		}
	}
	if c.Decode(0) != 1 {
		t.Fatal("code 0 must decode to 1")
	}
}

func TestMultSaturation(t *testing.T) {
	c, _ := NewMultCompressor(0.025, 4) // tiny code space
	max := c.Decode(c.MaxCode())
	huge := max * 100
	code := c.Encode(huge)
	if code != 15 {
		t.Fatalf("huge value must saturate to max code, got %d", code)
	}
	if c.Decode(999) != max {
		t.Fatal("out-of-range code must clamp")
	}
}

func TestMultMonotone(t *testing.T) {
	c, _ := NewMultCompressor(0.025, 8)
	prev := uint64(0)
	for v := 1.0; v < c.Decode(c.MaxCode()); v *= 1.37 {
		code := c.Encode(v)
		if code < prev {
			t.Fatalf("encoding not monotone at v=%v", v)
		}
		prev = code
	}
}

func TestRandomizedRoundingUnbiasedInLog(t *testing.T) {
	// [·]_R must make E[a] equal the exact log — the debiasing HPCC-PINT
	// relies on so rate control sees the right utilization *on average*.
	c, _ := NewMultCompressor(0.025, 8)
	g := hash.NewGlobal(77)
	v := 1234.5
	exact := math.Log(v) / math.Log((1.025)*(1.025))
	var sum float64
	const n = 200000
	for pkt := uint64(0); pkt < n; pkt++ {
		sum += float64(c.EncodeRandomized(v, g, pkt))
	}
	mean := sum / n
	if math.Abs(mean-exact) > 0.01 {
		t.Fatalf("E[code] = %v, want %v", mean, exact)
	}
}

func TestRandomizedRoundingWithinOneStep(t *testing.T) {
	c, _ := NewMultCompressor(0.025, 8)
	g := hash.NewGlobal(78)
	det := c.Encode(500)
	for pkt := uint64(0); pkt < 1000; pkt++ {
		r := c.EncodeRandomized(500, g, pkt)
		if d := int64(r) - int64(det); d < -1 || d > 1 {
			t.Fatalf("randomized code %d too far from deterministic %d", r, det)
		}
	}
}
