package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hash"
)

// Quantile is Quantiles for one phi.
func (s *KLL) Quantile(phi float64) float64 { return s.Quantiles(phi)[0] }

func mustKLL(t *testing.T, k int, seed uint64) *KLL {
	t.Helper()
	s, err := NewKLL(k, hash.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exactRank returns the number of elements <= v: the ground truth the
// sketch's rank error is measured against.
func exactRank(vs []float64, v float64) uint64 {
	var r uint64
	for _, x := range vs {
		if x <= v {
			r++
		}
	}
	return r
}

func TestKLLConstruct(t *testing.T) {
	if _, err := NewKLL(4, hash.NewRNG(1)); err == nil {
		t.Fatal("k<8 must be rejected")
	}
	if _, err := NewKLL(64, nil); err == nil {
		t.Fatal("nil RNG must be rejected")
	}
}

func TestKLLEmpty(t *testing.T) {
	s := mustKLL(t, 64, 1)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch quantile must be NaN")
	}
	if s.Count() != 0 {
		t.Fatal("empty sketch count must be 0")
	}
}

func TestKLLSingle(t *testing.T) {
	s := mustKLL(t, 64, 2)
	s.Add(42)
	for _, phi := range []float64{0, 0.5, 1} {
		if s.Quantile(phi) != 42 {
			t.Fatalf("phi=%v: got %v", phi, s.Quantile(phi))
		}
	}
}

func TestKLLQuantileErrorUniform(t *testing.T) {
	s := mustKLL(t, 256, 3)
	rng := hash.NewRNG(99)
	const n = 50000
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 1000
		s.Add(data[i])
	}
	for _, phi := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		est := s.Quantile(phi)
		// Convert value error to rank error: exact rank of the estimate.
		rank := float64(exactRank(data, est)) / n
		if math.Abs(rank-phi) > 0.02 {
			t.Fatalf("phi=%v: estimate has rank %v (rank error %v)",
				phi, rank, math.Abs(rank-phi))
		}
	}
}

func TestKLLQuantileErrorSkewed(t *testing.T) {
	// Heavy-tailed input (like hop latencies with rare spikes).
	s := mustKLL(t, 256, 4)
	rng := hash.NewRNG(100)
	const n = 50000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64() * 2)
		s.Add(data[i])
	}
	for _, phi := range []float64{0.5, 0.9, 0.99} {
		est := s.Quantile(phi)
		rank := float64(exactRank(data, est)) / n
		if math.Abs(rank-phi) > 0.025 {
			t.Fatalf("phi=%v: rank error %v", phi, math.Abs(rank-phi))
		}
	}
}

func TestKLLSpaceSublinear(t *testing.T) {
	s := mustKLL(t, 64, 5)
	for i := 0; i < 200000; i++ {
		s.Add(float64(i))
	}
	stored := 0
	for _, c := range s.compactors {
		stored += len(c)
	}
	if stored > 64*8 {
		t.Fatalf("sketch stores %d items for k=64; not sublinear", stored)
	}
	if s.Count() != 200000 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestKLLQuantileWithinRange(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s, _ := NewKLL(16, hash.NewRNG(seed))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			s.Add(v)
		}
		for _, phi := range []float64{-0.5, 0, 0.3, 0.99, 1, 2} {
			q := s.Quantile(phi)
			if q < lo || q > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExactQuantile(t *testing.T) {
	vs := []float64{5, 1, 3, 2, 4}
	if ExactQuantile(vs, 0.5) != 3 {
		t.Fatalf("median of 1..5 = %v", ExactQuantile(vs, 0.5))
	}
	if ExactQuantile(vs, 0) != 1 || ExactQuantile(vs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if !math.IsNaN(ExactQuantile(nil, 0.5)) {
		t.Fatal("empty slice must give NaN")
	}
	// Input must not be mutated.
	if vs[0] != 5 {
		t.Fatal("ExactQuantile mutated its input")
	}
}
