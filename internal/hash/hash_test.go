package hash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// splitmix64's finalizer is a bijection; sample-check no collisions on a
	// structured input set where a weak mixer would collide.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	rng := NewRNG(1)
	var totalFlips, samples int
	for i := 0; i < 2000; i++ {
		x := rng.Uint64()
		bit := uint(rng.Intn(64))
		d := Mix64(x) ^ Mix64(x^(1<<bit))
		totalFlips += popcount(d)
		samples++
	}
	mean := float64(totalFlips) / float64(samples)
	if mean < 28 || mean > 36 {
		t.Fatalf("avalanche mean %f, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestSeedIndependence(t *testing.T) {
	a, b := Seed(1), Seed(2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.Hash1(i) == b.Hash1(i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestDeriveDistinct(t *testing.T) {
	s := Seed(42)
	seen := make(map[Seed]uint64)
	for tag := uint64(0); tag < 1000; tag++ {
		d := s.Derive(tag)
		if prev, ok := seen[d]; ok {
			t.Fatalf("Derive(%d) == Derive(%d)", tag, prev)
		}
		seen[d] = tag
	}
}

func TestHashDeterminism(t *testing.T) {
	s := Seed(7)
	if s.Hash2(3, 4) != s.Hash2(3, 4) {
		t.Fatal("Hash2 not deterministic")
	}
	if s.Hash2(3, 4) == s.Hash2(4, 3) {
		t.Fatal("Hash2 symmetric; arguments must be order-sensitive")
	}
	if s.Hash3(1, 2, 3) == s.Hash3(3, 2, 1) {
		t.Fatal("Hash3 symmetric; arguments must be order-sensitive")
	}
}

func TestUnitRange(t *testing.T) {
	f := func(x uint64) bool {
		u := Unit(x)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Unit(0) != 0 {
		t.Fatalf("Unit(0) = %v, want 0", Unit(0))
	}
	if u := Unit(math.MaxUint64); u >= 1 {
		t.Fatalf("Unit(max) = %v, want < 1", u)
	}
}

func TestUnitUniform(t *testing.T) {
	// Chi-squared-ish bucket check on hashed sequential packet IDs: the
	// paper's coordination correctness depends on q(pkt) being uniform even
	// for adversarially regular inputs like consecutive sequence numbers.
	s := Seed(3)
	const buckets = 16
	const n = 160000
	var count [buckets]int
	for i := uint64(0); i < n; i++ {
		count[int(Unit(s.Hash1(i))*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d has %d, want %.0f +/- 5%%", b, c, want)
		}
	}
}

func TestBelowEdges(t *testing.T) {
	if Below(0, 0) {
		t.Fatal("Below(_, 0) must be false")
	}
	if !Below(math.MaxUint64, 1) {
		t.Fatal("Below(_, 1) must be true")
	}
	if Below(math.MaxUint64, 0.999999) {
		t.Fatal("max hash should not be below p<1")
	}
	if !Below(0, 1e-18) {
		t.Fatal("zero hash should be below any positive p")
	}
}

func TestBelowFrequency(t *testing.T) {
	s := Seed(11)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		hits := 0
		const n = 200000
		for i := uint64(0); i < n; i++ {
			if Below(s.Hash1(i), p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("p=%v: empirical %v", p, got)
		}
	}
}

func TestBits(t *testing.T) {
	if Bits(^uint64(0), 1) != 1 {
		t.Fatal("1-bit digest of all-ones must be 1")
	}
	if Bits(^uint64(0), 8) != 0xff {
		t.Fatal("8-bit digest of all-ones must be 0xff")
	}
	if Bits(0x8000000000000000, 1) != 1 {
		t.Fatal("top bit must survive 1-bit extraction")
	}
	if Bits(0x7fffffffffffffff, 1) != 0 {
		t.Fatal("1-bit digest must come from the top bit")
	}
	if Bits(123, 64) != 123 {
		t.Fatal("64-bit extraction must be identity")
	}
	if Bits(123, 0) != 0 {
		t.Fatal("0-bit extraction must be 0")
	}
	f := func(h uint64) bool { return Bits(h, 4) < 16 && Bits(h, 16) < 1<<16 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsUniform(t *testing.T) {
	// b-bit digests must be uniform over 2^b values: the hashed-value
	// inference of §4.2 relies on a false-match probability of exactly 2^-b.
	s := Seed(21)
	const b = 4
	var count [1 << b]int
	const n = 160000
	for i := uint64(0); i < n; i++ {
		count[Bits(s.Hash1(i), b)]++
	}
	want := float64(n) / (1 << b)
	for v, c := range count {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("digest %d: %d occurrences, want %.0f", v, c, want)
		}
	}
}
