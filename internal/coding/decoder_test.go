package coding

import (
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/hash"
)

// pathValues builds k distinct synthetic switch IDs.
func pathValues(k int) []uint64 {
	vals := make([]uint64, k)
	for i := range vals {
		vals[i] = uint64(1000 + i*37)
	}
	return vals
}

// universeWith returns a value universe of size n containing the path.
func universeWith(path []uint64, n int) []uint64 {
	u := append([]uint64(nil), path...)
	next := uint64(500000)
	for len(u) < n {
		u = append(u, next)
		next++
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Bits: 0, Mode: ModeHashed, Layering: PureBaseline()},
		{Bits: 65, Mode: ModeHashed, Layering: PureBaseline()},
		{Bits: 8, Mode: ModeRaw, ValueBits: 0, Layering: PureBaseline()},
		{Bits: 8, Mode: Mode(9), Layering: PureBaseline()},
		{Bits: 8, Mode: ModeHashed, Layering: Layering{Tau: 0.5}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: config %+v must fail validation", i, c)
		}
	}
	good := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(10, true)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentExtraction(t *testing.T) {
	c := Config{Bits: 8, Mode: ModeRaw, ValueBits: 32, Layering: PureBaseline()}
	if c.Fragments() != 4 {
		t.Fatalf("32-bit values on 8-bit budget: F=%d, want 4", c.Fragments())
	}
	v := uint64(0xDEADBEEF)
	want := []uint64{0xEF, 0xBE, 0xAD, 0xDE}
	for f, w := range want {
		if got := c.fragment(v, f); got != w {
			t.Fatalf("fragment %d = %#x, want %#x", f, got, w)
		}
	}
	// Non-divisible width: 20-bit values in 8-bit budget -> 3 fragments,
	// the last only 4 bits wide.
	c2 := Config{Bits: 8, Mode: ModeRaw, ValueBits: 20, Layering: PureBaseline()}
	if c2.Fragments() != 3 {
		t.Fatalf("F=%d, want 3", c2.Fragments())
	}
	if got := c2.fragment(0xFFFFF, 2); got != 0xF {
		t.Fatalf("tail fragment = %#x, want 0xF", got)
	}
}

func TestTotalBits(t *testing.T) {
	c := Config{Bits: 8, Mode: ModeHashed, Instances: 2, Layering: PureBaseline()}
	if c.TotalBits() != 16 {
		t.Fatalf("2x8 bits = %d, want 16", c.TotalBits())
	}
	c = Config{Bits: 8, Mode: ModeRaw, ValueBits: 32, Instances: 2, Layering: PureBaseline()}
	if c.TotalBits() != 8 {
		t.Fatal("raw mode ignores Instances")
	}
}

func TestEncoderBaselineWinnerSemantics(t *testing.T) {
	// Raw full-width baseline: the final digest must be the block of the
	// reservoir winner the decoder computes offline.
	cfg := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: PureBaseline()}
	g := hash.NewGlobal(1)
	enc, err := NewEncoder(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	values := pathValues(10)
	for pkt := uint64(0); pkt < 2000; pkt++ {
		d := enc.EncodePath(pkt, values)
		w := g.ReservoirWinner(pkt, 10)
		if d.Words[0] != values[w-1] {
			t.Fatalf("pkt %d: digest %d, want winner hop %d's value %d",
				pkt, d.Words[0], w, values[w-1])
		}
	}
}

func TestEncoderXORSemantics(t *testing.T) {
	cfg := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: PureXOR(0.3)}
	g := hash.NewGlobal(2)
	enc, _ := NewEncoder(cfg, g)
	values := pathValues(8)
	for pkt := uint64(0); pkt < 2000; pkt++ {
		d := enc.EncodePath(pkt, values)
		var want uint64
		for hop := 1; hop <= 8; hop++ {
			if g.Act(pkt, hop, 0.3) {
				want ^= values[hop-1]
			}
		}
		if d.Words[0] != want {
			t.Fatalf("pkt %d: digest %d, want %d", pkt, d.Words[0], want)
		}
	}
}

func TestEncodeHopDoesNotMutateInput(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: PureXOR(1)}
	g := hash.NewGlobal(3)
	enc, _ := NewEncoder(cfg, g)
	d := cfg.NewDigest()
	before := d.Words[0]
	_ = enc.EncodeHop(7, 1, d, 42)
	if d.Words[0] != before {
		t.Fatal("EncodeHop mutated the input digest")
	}
}

func decodeOnce(t *testing.T, cfg Config, k int, universeSize, maxPackets int, seed uint64) int {
	t.Helper()
	values := pathValues(k)
	var universe []uint64
	if cfg.Mode == ModeHashed {
		universe = universeWith(values, universeSize)
	}
	n, ok, err := Trial(cfg, hash.Seed(seed), values, universe, hash.NewRNG(seed+1), maxPackets)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("failed to decode within %d packets (cfg=%+v k=%d)", maxPackets, cfg, k)
	}
	return n
}

func TestDecodeRawBaselineFullWidth(t *testing.T) {
	cfg := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: PureBaseline()}
	decodeOnce(t, cfg, 10, 0, 2000, 11)
}

func TestDecodeRawFragmented(t *testing.T) {
	// 32-bit switch IDs on an 8-bit budget: 4 fragments, decoding behaves
	// like a k·F-block message (§4.2).
	cfg := Config{Bits: 8, Mode: ModeRaw, ValueBits: 32, Layering: PureBaseline()}
	decodeOnce(t, cfg, 5, 0, 5000, 12)
}

func TestDecodeRawXORMultiLayer(t *testing.T) {
	cfg := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: MultiLayer(10, true)}
	decodeOnce(t, cfg, 10, 0, 3000, 13)
}

func TestDecodeHashed8Bit(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(10, true)}
	decodeOnce(t, cfg, 10, 200, 5000, 14)
}

func TestDecodeHashed1Bit(t *testing.T) {
	// The paper's headline: even a one-bit budget decodes the path.
	cfg := Config{Bits: 1, Mode: ModeHashed, Layering: MultiLayer(5, true)}
	decodeOnce(t, cfg, 5, 100, 20000, 15)
}

func TestDecodeHashedTwoInstances(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Instances: 2, Layering: MultiLayer(10, true)}
	n2 := decodeOnce(t, cfg, 10, 200, 5000, 16)
	cfg1 := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(10, true)}
	n1 := decodeOnce(t, cfg1, 10, 200, 5000, 16)
	_ = n1
	_ = n2 // both must decode; relative speed is covered by averaged tests
}

func TestDecodeLongPath(t *testing.T) {
	// Kentucky-Datalink-scale: 59 hops, 8-bit budget, hashed against a
	// 753-switch universe.
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(59, true)}
	n := decodeOnce(t, cfg, 59, 753, 30000, 17)
	if n < 59 {
		t.Fatalf("decoded %d-hop path with %d < k packets: impossible", 59, n)
	}
}

// TestObserveFinishedDecoderZeroAlloc: a packet of a decoded flow is
// explained on arrival in Observe's own frame and allocates nothing, at
// the testbench's path length and at a long one.
func TestObserveFinishedDecoderZeroAlloc(t *testing.T) {
	for _, k := range []int{5, 25} {
		cfg := Config{Bits: 8, Instances: 2, Mode: ModeHashed, Layering: MultiLayer(k, true)}
		values := pathValues(k)
		g := hash.NewGlobal(3)
		enc, err := NewEncoder(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(cfg, g, k, universeWith(values, 256))
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, 4096)
		digs := make([]Digest, len(ids))
		for i := range ids {
			ids[i] = hash.Mix64(uint64(i) + 1)
			digs[i] = enc.EncodePath(ids[i], values)
		}
		i := 0
		next := func() {
			dec.Observe(ids[i], digs[i])
			i++
		}
		for !dec.Done() {
			if i == len(ids)/2 {
				t.Fatalf("k=%d: not decoded in %d packets", k, i)
			}
			next()
		}
		if got := testing.AllocsPerRun(256, next); got != 0 {
			t.Errorf("k=%d: Observe on a finished decoder allocates %.2f times per packet, want 0", k, got)
		}
	}
}

func TestDecoderRejectsBadK(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: PureBaseline()}
	g := hash.NewGlobal(1)
	if _, err := NewDecoder(cfg, g, 0, []uint64{1}); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := NewDecoder(cfg, g, 65, []uint64{1}); err == nil {
		t.Fatal("k=65 must be rejected")
	}
}

func TestDecoderRejectsBadUniverse(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: PureBaseline()}
	g := hash.NewGlobal(1)
	if _, err := NewDecoder(cfg, g, 5, nil); err == nil {
		t.Fatal("hashed mode without universe must be rejected")
	}
	if _, err := NewDecoder(cfg, g, 5, []uint64{7, 7}); err == nil {
		t.Fatal("duplicate universe values must be rejected")
	}
}

func TestDecoderInconsistencyDetection(t *testing.T) {
	// Encode against path A but decode assuming path B: the decoder must
	// flag inconsistencies rather than silently "decode" (§7, route-change
	// detection).
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(10, true)}
	g := hash.NewGlobal(44)
	pathA := pathValues(10)
	pathB := append([]uint64(nil), pathA...)
	pathB[6] = 999999 // differs at hop 7
	universe := universeWith(append(pathA, 999999), 100)

	encA, _ := NewEncoder(cfg, g)
	dec, _ := NewDecoder(cfg, g, 10, universe)
	rng := hash.NewRNG(5)
	// First decode path A fully.
	for i := 0; i < 5000 && !dec.Done(); i++ {
		pkt := rng.Uint64()
		dec.Observe(pkt, encA.EncodePath(pkt, pathA))
	}
	if !dec.Done() {
		t.Fatal("setup: path A failed to decode")
	}
	base := dec.Inconsistent()
	// Now the route changes: subsequent packets follow path B.
	encB, _ := NewEncoder(cfg, g)
	flagged := 0
	for i := 0; i < 500; i++ {
		pkt := rng.Uint64()
		dec.Observe(pkt, encB.EncodePath(pkt, pathB))
		if dec.Inconsistent() > base {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("route change never flagged as inconsistent")
	}
}

func TestDecoderProgressMonotone(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(25, true)}
	values := pathValues(25)
	universe := universeWith(values, 300)
	prog, err := Progress(cfg, hash.Seed(3), values, universe, hash.NewRNG(4), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if prog[0] > 25 {
		t.Fatal("cannot start with more than k missing")
	}
	for i := 1; i < len(prog); i++ {
		if prog[i] > prog[i-1] {
			t.Fatalf("missing hops increased at packet %d: %d -> %d",
				i+1, prog[i-1], prog[i])
		}
	}
	if prog[len(prog)-1] != 0 {
		t.Fatalf("25-hop path not decoded after 3000 packets (missing %d)",
			prog[len(prog)-1])
	}
}

func TestDecodeAlwaysCorrectProperty(t *testing.T) {
	// Whatever the path/universe/seed, a completed decode must equal the
	// truth (Trial verifies internally and errors otherwise).
	f := func(seed uint64, kRaw uint8) bool {
		k := 2 + int(kRaw%12)
		cfg := Config{Bits: 4, Mode: ModeHashed, Layering: MultiLayer(k, true)}
		values := pathValues(k)
		universe := universeWith(values, 64)
		_, ok, err := Trial(cfg, hash.Seed(seed), values, universe,
			hash.NewRNG(seed^0xabc), 50000)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsStats(t *testing.T) {
	cfg := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: PureBaseline()}
	st, err := RunTrials(cfg, pathValues(25), nil, 200, 77, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decoded != 200 {
		t.Fatalf("only %d/200 trials decoded", st.Decoded)
	}
	// Coupon collector: mean ≈ 25·H_25 ≈ 95.4, median ≈ 89 (paper §4.2).
	if st.Mean < 80 || st.Mean > 112 {
		t.Fatalf("baseline mean %v, want ≈95", st.Mean)
	}
	if st.Median < 75 || st.Median > 105 {
		t.Fatalf("baseline median %v, want ≈89", st.Median)
	}
	if st.P99 < st.Median || st.Max < int(st.P99) {
		t.Fatal("order statistics inconsistent")
	}
}

func TestHybridBeatsBaselineK25(t *testing.T) {
	// Fig 5's headline: interleaving decodes k=d=25 with a median of ~41
	// packets vs ~89 for Baseline.
	values := pathValues(25)
	base := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: PureBaseline()}
	hyb := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: Hybrid(25, 0.75)}
	sb, err := RunTrials(base, values, nil, 300, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := RunTrials(hyb, values, nil, 300, 6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Median >= sb.Median {
		t.Fatalf("hybrid median %v not better than baseline %v", sh.Median, sb.Median)
	}
	if sh.P99 >= sb.P99 {
		t.Fatalf("hybrid p99 %v not better than baseline %v", sh.P99, sb.P99)
	}
}

func TestMultiLayerNearTheorem3(t *testing.T) {
	// Theorem 3 (with A.3's constants, d=k): ~k(log log* k + 2 + o(1)).
	values := pathValues(25)
	cfg := Config{Bits: 32, Mode: ModeRaw, ValueBits: 32, Layering: MultiLayer(25, true)}
	st, err := RunTrials(cfg, values, nil, 300, 7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	bound := analysis.Theorem3Packets(25)
	if st.Mean > bound*1.5 {
		t.Fatalf("multi-layer mean %v far above Theorem 3 bound %v", st.Mean, bound)
	}
}
