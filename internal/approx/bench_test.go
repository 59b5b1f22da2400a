package approx

import (
	"testing"

	"repro/internal/hash"
)

func BenchmarkMultEncode(b *testing.B) {
	c, _ := NewMultCompressor(0.025, 8)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= c.Encode(float64(i%100000 + 1))
	}
	benchSink = acc
}

func BenchmarkMultEncodeRandomized(b *testing.B) {
	c, _ := NewMultCompressor(0.025, 8)
	g := hash.NewGlobal(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= c.EncodeRandomized(float64(i%100000+1), g, uint64(i))
	}
	benchSink = acc
}

func BenchmarkLog2Table(b *testing.B) {
	t, _ := NewLogExpTable(8)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += t.Log2(uint64(i + 1))
	}
	benchSinkF = acc
}

func BenchmarkHPCCUtilizationUpdate(b *testing.B) {
	t, _ := NewLogExpTable(12)
	h := NewHPCCUtilization(13000, 100_000_000_000, t)
	u := 0.0
	for i := 0; i < b.N; i++ {
		u = h.Update(u, 100, uint64(i%64000), 1000)
	}
	benchSinkF = u
}

var (
	benchSink  uint64
	benchSinkF float64
)
