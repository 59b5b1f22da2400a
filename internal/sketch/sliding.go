package sketch

import (
	"fmt"

	"repro/internal/hash"
)

// SlidingKLL keeps latency quantiles over the most recent window of the
// stream using a ring of sub-sketches — the sliding-window option §4.1
// mentions so operators see recent behaviour, not all-time history.
//
// The window is divided into `buckets` equal spans of `span` insertions
// each. Queries merge the live buckets; retired buckets are dropped whole,
// so the effective window is between (buckets-1)·span and buckets·span
// items.
type SlidingKLL struct {
	buckets int
	span    uint64
	k       int
	ring    []*KLL
	cur     int
	inCur   uint64
	rng     *hash.RNG
}

// NewSlidingKLL creates a sliding-window quantile sketch.
func NewSlidingKLL(buckets int, span uint64, k int, rng *hash.RNG) (*SlidingKLL, error) {
	if buckets < 2 {
		return nil, fmt.Errorf("sketch: sliding window needs >= 2 buckets")
	}
	if span < 1 {
		return nil, fmt.Errorf("sketch: bucket span must be >= 1")
	}
	s := &SlidingKLL{buckets: buckets, span: span, k: k, rng: rng}
	s.ring = make([]*KLL, buckets)
	first, err := NewKLL(k, rng.Split())
	if err != nil {
		return nil, err
	}
	s.ring[0] = first
	return s, nil
}

// Add inserts a value, rotating the ring when the current bucket fills.
func (s *SlidingKLL) Add(v float64) error {
	if s.inCur >= s.span {
		s.cur = (s.cur + 1) % s.buckets
		fresh, err := NewKLL(s.k, s.rng.Split())
		if err != nil {
			return err
		}
		s.ring[s.cur] = fresh
		s.inCur = 0
	}
	s.ring[s.cur].Add(v)
	s.inCur++
	return nil
}

// Quantile estimates the phi-quantile over the live window.
func (s *SlidingKLL) Quantile(phi float64) (float64, error) {
	merged, err := NewKLL(s.k, s.rng.Split())
	if err != nil {
		return 0, err
	}
	for _, b := range s.ring {
		if b != nil {
			merged.Merge(b)
		}
	}
	return merged.Quantile(phi), nil
}

// Clone deep-copies the window, its sub-sketches, and its RNG state, so
// the copy rotates, answers, and evolves exactly as the original would.
func (s *SlidingKLL) Clone() *SlidingKLL {
	c := &SlidingKLL{buckets: s.buckets, span: s.span, k: s.k,
		cur: s.cur, inCur: s.inCur, rng: s.rng.Clone()}
	c.ring = make([]*KLL, len(s.ring))
	for i, b := range s.ring {
		if b != nil {
			c.ring[i] = b.Clone()
		}
	}
	return c
}

// WindowCount returns the number of items currently inside the window.
func (s *SlidingKLL) WindowCount() uint64 {
	var n uint64
	for _, b := range s.ring {
		if b != nil {
			n += b.Count()
		}
	}
	return n
}
