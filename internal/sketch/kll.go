// Package sketch implements the quantile summaries of the latency
// experiments (§4.1, §6.2):
//
//   - KLL, the optimal quantile sketch of Karnin, Lang and Liberty [39]:
//     Fig 9's PINTS curves and examples/latency feed one per hop with the
//     hop's sampled latency codes, to bound per-flow storage,
//   - exact-quantile helpers: the nearest-rank rule (RankIndex) the
//     Recording's latency stores answer by, and ground truth for tests and
//     experiments.
//
// Everything is deterministic given a seeded RNG and uses only the standard
// library.
package sketch

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hash"
)

// KLL is a quantile sketch: feed it a stream of float64 values and ask for
// any quantile with additive rank error O(1/k) using O(k) space.
//
// The structure is a hierarchy of "compactors". Level h stores items with
// weight 2^h. When a level overflows its capacity it sorts itself and
// promotes a random half (even- or odd-indexed items, one coin per
// compaction) to the level above — the survivors' doubled weight preserves
// ranks in expectation.
type KLL struct {
	k          int
	c          float64 // capacity decay between levels (2/3 per the paper)
	compactors [][]float64
	n          uint64 // total stream length
	rng        *hash.RNG
}

// NewKLL creates a sketch with accuracy parameter k (space O(k)); rank
// error is ~O(1/k). k must be at least 8.
func NewKLL(k int, rng *hash.RNG) (*KLL, error) {
	if k < 8 {
		return nil, fmt.Errorf("sketch: KLL k=%d too small (min 8)", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("sketch: KLL requires an RNG")
	}
	s := &KLL{k: k, c: 2.0 / 3.0, rng: rng}
	s.grow()
	return s, nil
}

func (s *KLL) grow() {
	s.compactors = append(s.compactors, make([]float64, 0, s.capacity(len(s.compactors))))
}

// capacity returns the item budget of level h given the current height.
func (s *KLL) capacity(h int) int {
	height := len(s.compactors)
	depth := height - h - 1
	cap := int(math.Ceil(float64(s.k) * math.Pow(s.c, float64(depth))))
	if cap < 2 {
		cap = 2
	}
	return cap
}

// Add inserts one value.
func (s *KLL) Add(v float64) {
	s.compactors[0] = append(s.compactors[0], v)
	s.n++
	s.compress()
}

// compress compacts any overflowing level, cascading upward.
func (s *KLL) compress() {
	for h := 0; h < len(s.compactors); h++ {
		if len(s.compactors[h]) <= s.capacity(h) {
			continue
		}
		if h+1 >= len(s.compactors) {
			s.grow()
		}
		c := s.compactors[h]
		sort.Float64s(c)
		// Compact an even count of items so total weight is conserved
		// exactly (Rank(+inf) == n); an odd straggler stays behind.
		keep := len(c) % 2
		offset := keep
		if s.rng.Bool(0.5) {
			offset++
		}
		for i := offset; i < len(c); i += 2 {
			s.compactors[h+1] = append(s.compactors[h+1], c[i])
		}
		s.compactors[h] = s.compactors[h][:keep]
	}
}

// Count returns the number of values inserted.
func (s *KLL) Count() uint64 { return s.n }

// weighted returns all (value, weight) pairs sorted by value.
func (s *KLL) weighted() ([]float64, []uint64) {
	type pair struct {
		v float64
		w uint64
	}
	var items []pair
	for h, c := range s.compactors {
		w := uint64(1) << uint(h)
		for _, v := range c {
			items = append(items, pair{v, w})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	vs := make([]float64, len(items))
	ws := make([]uint64, len(items))
	for i, it := range items {
		vs[i], ws[i] = it.v, it.w
	}
	return vs, ws
}

// Quantiles estimates the phi-quantile (phi in [0,1]) for each phi from
// one pass over the sketch: the sorted weighted list is built once and
// each phi reads it. An empty sketch answers NaN.
func (s *KLL) Quantiles(phis ...float64) []float64 {
	vs, ws := s.weighted()
	var totalW uint64
	for _, w := range ws {
		totalW += w
	}
	out := make([]float64, len(phis))
	for i, phi := range phis {
		out[i] = weightedQuantile(vs, ws, totalW, phi)
	}
	return out
}

// weightedQuantile reads the phi-quantile off a value-sorted weighted
// list whose weights sum to totalW (NaN when the list is empty).
func weightedQuantile(vs []float64, ws []uint64, totalW uint64, phi float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := phi * float64(totalW)
	var cum float64
	for i, v := range vs {
		cum += float64(ws[i])
		if cum >= target {
			return v
		}
	}
	return vs[len(vs)-1]
}

// ExactQuantile computes the phi-quantile of a slice exactly (for ground
// truth in tests and experiment error reporting). It does not modify vs.
func ExactQuantile(vs []float64, phi float64) float64 {
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	return SortedQuantile(cp, phi)
}

// SortedQuantile is ExactQuantile over a slice that is already sorted
// ascending: no copy, no sort, so a caller wanting several quantiles of
// one sample set sorts once.
func SortedQuantile(sorted []float64, phi float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[RankIndex(phi, len(sorted))]
}

// RankIndex is the nearest-rank rule every exact quantile in the
// repository reads by: the index of the phi-quantile in an ascending list
// of n > 0 samples is ⌈phi·n⌉−1, clamped to the list.
func RankIndex(phi float64, n int) int {
	switch {
	case phi <= 0:
		return 0
	case phi >= 1:
		return n - 1
	}
	return max(0, int(math.Ceil(phi*float64(n)))-1)
}
