package coding

import (
	"testing"

	"repro/internal/hash"
)

func benchConfig(k int) (Config, []uint64, []uint64) {
	values := pathValues(k)
	universe := universeWith(values, 256)
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(k, true)}
	return cfg, values, universe
}

func BenchmarkEncodePathK5(b *testing.B)  { benchEncode(b, 5) }
func BenchmarkEncodePathK25(b *testing.B) { benchEncode(b, 25) }
func BenchmarkEncodePathK59(b *testing.B) { benchEncode(b, 59) }

func benchEncode(b *testing.B, k int) {
	b.Helper()
	cfg, values, _ := benchConfig(k)
	g := hash.NewGlobal(1)
	enc, err := NewEncoder(cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		d := enc.EncodePath(uint64(i), values)
		acc ^= d.Words[0]
	}
	benchSink = acc
}

// BenchmarkDecodeFullPathK25 measures one complete encode+decode episode
// (packets until the message decodes).
func BenchmarkDecodeFullPathK25(b *testing.B) {
	cfg, values, universe := benchConfig(25)
	rng := hash.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := Trial(cfg, hash.Seed(rng.Uint64()), values, universe, rng.Split(), 100000)
		if err != nil || !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkLNCObserve(b *testing.B) {
	g := hash.NewGlobal(2)
	blocks := pathValues(59)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _ := NewLNC(g, 59)
		rng := hash.NewRNG(uint64(i))
		for !l.Done() {
			pkt := rng.Uint64()
			l.Observe(pkt, l.Encode(pkt, blocks))
		}
	}
}

func BenchmarkReservoirWinnerK59(b *testing.B) {
	g := hash.NewGlobal(3)
	var acc int
	for i := 0; i < b.N; i++ {
		acc += g.ReservoirWinner(uint64(i), 59)
	}
	benchSink = uint64(acc)
}

var benchSink uint64
