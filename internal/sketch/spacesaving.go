package sketch

import (
	"fmt"
	"sort"
)

// SpaceSaving is the deterministic heavy-hitters summary of Metwally,
// Agrawal and El Abbadi [50]. With m counters it guarantees, for a stream
// of length n:
//
//   - every value occurring more than n/m times is tracked (no false
//     negatives above that threshold), and
//   - each reported count overestimates the true count by at most n/m.
//
// PINT applies it to the uniformly sub-sampled per-hop value stream to
// answer the frequent-values aggregation of Theorem 2.
type SpaceSaving struct {
	m   int
	cnt map[uint64]uint64 // value -> count
	err map[uint64]uint64 // value -> overestimation bound
	n   uint64
}

// NewSpaceSaving creates a summary with m counters.
func NewSpaceSaving(m int) (*SpaceSaving, error) {
	if m < 1 {
		return nil, fmt.Errorf("sketch: SpaceSaving needs m >= 1, got %d", m)
	}
	return &SpaceSaving{
		m:   m,
		cnt: make(map[uint64]uint64, m),
		err: make(map[uint64]uint64, m),
	}, nil
}

// Add records one occurrence of value v.
func (s *SpaceSaving) Add(v uint64) {
	s.n++
	if _, ok := s.cnt[v]; ok {
		s.cnt[v]++
		return
	}
	if len(s.cnt) < s.m {
		s.cnt[v] = 1
		s.err[v] = 0
		return
	}
	// Evict the minimum counter; the newcomer inherits its count (+1) and
	// carries that inherited amount as its error bound.
	var minV uint64
	minC := ^uint64(0)
	for val, c := range s.cnt {
		if c < minC || (c == minC && val < minV) {
			minC, minV = c, val
		}
	}
	delete(s.cnt, minV)
	delete(s.err, minV)
	s.cnt[v] = minC + 1
	s.err[v] = minC
}

// Count returns the stream length observed so far.
func (s *SpaceSaving) Count() uint64 { return s.n }

// HeavyHitter is one reported frequent value.
type HeavyHitter struct {
	Value    uint64
	Estimate uint64 // upper bound on the count
	Floor    uint64 // guaranteed lower bound
}

// HeavyHitters returns every tracked value whose estimated frequency is at
// least theta (a fraction of the stream), most frequent first. With
// m >= 1/eps counters this realizes Theorem 2's (theta, theta−eps)
// separation on the sampled stream.
func (s *SpaceSaving) HeavyHitters(theta float64) []HeavyHitter {
	if s.n == 0 {
		return nil
	}
	thr := theta * float64(s.n)
	var out []HeavyHitter
	for v, c := range s.cnt {
		if float64(c) >= thr {
			out = append(out, HeavyHitter{Value: v, Estimate: c, Floor: c - s.err[v]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimate != out[j].Estimate {
			return out[i].Estimate > out[j].Estimate
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Clone deep-copies the summary; the copy evolves independently.
func (s *SpaceSaving) Clone() *SpaceSaving {
	c := &SpaceSaving{m: s.m, n: s.n,
		cnt: make(map[uint64]uint64, len(s.cnt)),
		err: make(map[uint64]uint64, len(s.err))}
	for v, n := range s.cnt {
		c.cnt[v] = n
	}
	for v, e := range s.err {
		c.err[v] = e
	}
	return c
}
