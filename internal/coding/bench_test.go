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

// BenchmarkDecoderObserve measures the steady-state cost of feeding one
// digest to a long-lived decoder (the collector's per-packet decode-side
// hot path), with allocation reporting: the residual is worked on in
// Observe's own frame, so packets explained on arrival — every packet of
// a decoded flow — allocate nothing, and a stored one only grows the
// decoder's packet slab.
func BenchmarkDecoderObserve(b *testing.B) {
	for _, k := range []int{5, 25} {
		b.Run("k="+itoaCoding(k), func(b *testing.B) {
			cfg := Config{Bits: 8, Instances: 2, Mode: ModeHashed, Layering: MultiLayer(k, true)}
			values := pathValues(k)
			universe := universeWith(values, 256)
			g := hash.NewGlobal(3)
			enc, err := NewEncoder(cfg, g)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-encode a packet stream so only Observe is timed. The
			// decoder is periodically replaced with a fresh one (decoding
			// completes after ~k log log* k packets), amortized outside
			// the interesting cost.
			const stream = 4096
			ids := make([]uint64, stream)
			digs := make([]Digest, stream)
			for i := range ids {
				ids[i] = hash.Mix64(uint64(i) + 1)
				digs[i] = enc.EncodePath(ids[i], values)
			}
			dec, err := NewDecoder(cfg, g, k, universe)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % stream
				if j == 0 && i > 0 {
					b.StopTimer()
					dec, err = NewDecoder(cfg, g, k, universe)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				dec.Observe(ids[j], digs[j])
			}
		})
	}
}

// BenchmarkColdFlowRecord is what a new flow costs the decode side: one
// decoder built on a shared plan and fed the flow's first 500 digests (the
// testbench shape: 2×4-bit hashed, 5 hops, an 80-switch universe). The
// B/op and allocs/op columns are the count gate for the cold path — the
// decoder and its block, plus the slab growing while the path peels.
func BenchmarkColdFlowRecord(b *testing.B) {
	const k, pkts = 5, 500
	cfg := Config{Bits: 4, Instances: 2, Mode: ModeHashed, Layering: MultiLayer(5, true)}
	values := pathValues(k)
	g := hash.NewGlobal(3)
	enc, err := NewEncoder(cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewPlan(enc, universeWith(values, 80))
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint64, pkts)
	digs := make([]Digest, pkts)
	for i := range ids {
		ids[i] = hash.Mix64(uint64(i) + 1)
		digs[i] = enc.EncodePath(ids[i], values)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := plan.NewDecoder(k)
		if err != nil {
			b.Fatal(err)
		}
		for j := range ids {
			dec.Observe(ids[j], digs[j])
		}
		if !dec.Done() {
			b.Fatal("flow did not decode")
		}
	}
}

func itoaCoding(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
