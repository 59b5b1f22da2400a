package sketch

import (
	"testing"

	"repro/internal/hash"
)

func BenchmarkKLLAdd(b *testing.B) {
	s, _ := NewKLL(256, hash.NewRNG(1))
	rng := hash.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}

func BenchmarkKLLQuantile(b *testing.B) {
	s, _ := NewKLL(256, hash.NewRNG(1))
	rng := hash.NewRNG(2)
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64())
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += s.Quantile(0.99)
	}
	benchSink = acc
}

var benchSink float64
