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

func BenchmarkKLLMerge(b *testing.B) {
	// Pre-build a pool of sketches outside the timer; merging mutates the
	// receiver, so each iteration merges a fresh copy-by-reconstruction
	// pair drawn from the pool.
	mk := func(seed uint64) *KLL {
		s, _ := NewKLL(128, hash.NewRNG(seed))
		rng := hash.NewRNG(seed + 1)
		for i := 0; i < 2000; i++ {
			s.Add(rng.Float64())
		}
		return s
	}
	const pool = 64
	pairs := make([][2]*KLL, pool)
	for i := range pairs {
		pairs[i] = [2]*KLL{mk(uint64(i)), mk(uint64(i) + 1000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%pool]
		p[0].Merge(p[1])
	}
}

func BenchmarkSpaceSavingAdd(b *testing.B) {
	s, _ := NewSpaceSaving(64)
	rng := hash.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(rng.Intn(10000)))
	}
}

var benchSink float64
