package sketch

import (
	"testing"

	"repro/internal/hash"
)

func TestSlidingKLLConstruct(t *testing.T) {
	if _, err := NewSlidingKLL(1, 10, 64, hash.NewRNG(1)); err == nil {
		t.Fatal("buckets<2 must be rejected")
	}
	if _, err := NewSlidingKLL(4, 0, 64, hash.NewRNG(1)); err == nil {
		t.Fatal("span=0 must be rejected")
	}
}

func TestSlidingKLLForgetsOldData(t *testing.T) {
	// Feed 10k small values then 10k large ones with a window of ~4k:
	// the median must reflect only the recent (large) regime.
	s, err := NewSlidingKLL(4, 1000, 64, hash.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := s.Add(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		if err := s.Add(1000); err != nil {
			t.Fatal(err)
		}
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med != 1000 {
		t.Fatalf("median %v; window failed to expire the old regime", med)
	}
	if s.WindowCount() > 4000 {
		t.Fatalf("window holds %d items, want <= 4000", s.WindowCount())
	}
}

func TestSlidingKLLWindowCount(t *testing.T) {
	s, _ := NewSlidingKLL(3, 100, 64, hash.NewRNG(7))
	for i := 0; i < 50; i++ {
		_ = s.Add(float64(i))
	}
	if s.WindowCount() != 50 {
		t.Fatalf("window count %d, want 50", s.WindowCount())
	}
}
