package sketch

import (
	"testing"
	"testing/quick"

	"repro/internal/hash"
)

func TestSpaceSavingConstruct(t *testing.T) {
	if _, err := NewSpaceSaving(0); err == nil {
		t.Fatal("m=0 must be rejected")
	}
}

func TestSpaceSavingExactWhenFits(t *testing.T) {
	s, _ := NewSpaceSaving(10)
	for v := uint64(0); v < 5; v++ {
		for i := uint64(0); i <= v; i++ {
			s.Add(v)
		}
	}
	for v := uint64(0); v < 5; v++ {
		c, ok := s.cnt[v]
		if !ok || c != v+1 {
			t.Fatalf("value %d: count %d ok=%v, want %d", v, c, ok, v+1)
		}
		if s.cnt[v]-s.err[v] != v+1 {
			t.Fatal("no error when all values fit")
		}
	}
}

func TestSpaceSavingNoFalseNegatives(t *testing.T) {
	// Any value with frequency > n/m must be tracked.
	s, _ := NewSpaceSaving(20)
	rng := hash.NewRNG(1)
	true_ := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		var v uint64
		if rng.Bool(0.5) {
			v = uint64(rng.Intn(4)) // 4 heavy values, ~12.5% each
		} else {
			v = 100 + uint64(rng.Intn(5000)) // long tail
		}
		true_[v]++
		s.Add(v)
	}
	for v, c := range true_ {
		if c > n/20 {
			if _, ok := s.cnt[v]; !ok {
				t.Fatalf("heavy value %d (count %d > n/m) not tracked", v, c)
			}
		}
	}
}

func TestSpaceSavingOverestimateBound(t *testing.T) {
	s, _ := NewSpaceSaving(50)
	rng := hash.NewRNG(2)
	true_ := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		v := uint64(rng.Intn(500))
		true_[v]++
		s.Add(v)
	}
	for v := uint64(0); v < 500; v++ {
		est, ok := s.cnt[v]
		if !ok {
			continue
		}
		if int(est) < true_[v] {
			t.Fatalf("value %d: estimate %d below true %d", v, est, true_[v])
		}
		if int(est)-true_[v] > n/50 {
			t.Fatalf("value %d: overestimate %d exceeds n/m", v, int(est)-true_[v])
		}
	}
}

func TestSpaceSavingGuaranteedLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hash.NewRNG(seed)
		s, _ := NewSpaceSaving(8)
		true_ := map[uint64]int{}
		for i := 0; i < 2000; i++ {
			v := uint64(rng.Intn(40))
			true_[v]++
			s.Add(v)
		}
		for v := uint64(0); v < 40; v++ {
			if int(s.cnt[v]-s.err[v]) > true_[v] {
				return false // the floor must never exceed the truth
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSavingHeavyHittersSorted(t *testing.T) {
	s, _ := NewSpaceSaving(10)
	for i := 0; i < 60; i++ {
		s.Add(1)
	}
	for i := 0; i < 30; i++ {
		s.Add(2)
	}
	for i := 0; i < 10; i++ {
		s.Add(3)
	}
	hh := s.HeavyHitters(0.2)
	if len(hh) != 2 {
		t.Fatalf("got %d heavy hitters, want 2 (values 1 and 2)", len(hh))
	}
	if hh[0].Value != 1 || hh[1].Value != 2 {
		t.Fatalf("heavy hitters %v not sorted by frequency", hh)
	}
	if s.HeavyHitters(1.01) != nil && len(s.HeavyHitters(1.01)) != 0 {
		t.Fatal("impossible threshold must return nothing")
	}
}

func TestSpaceSavingEmptyHeavyHitters(t *testing.T) {
	s, _ := NewSpaceSaving(4)
	if s.HeavyHitters(0.1) != nil {
		t.Fatal("empty stream must return nil")
	}
	if s.Count() != 0 || len(s.cnt) != 0 {
		t.Fatal("fresh summary not empty")
	}
}

func TestSpaceSavingCounterCap(t *testing.T) {
	s, _ := NewSpaceSaving(7)
	rng := hash.NewRNG(3)
	for i := 0; i < 10000; i++ {
		s.Add(uint64(rng.Intn(1000)))
	}
	if len(s.cnt) > 7 {
		t.Fatalf("counter count %d exceeds m=7", len(s.cnt))
	}
}
