package core

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/hash"
)

// LatencyQuery is the dynamic per-flow aggregation (§4.1, Example #1):
// every packet carries the compressed value of one uniformly chosen hop
// (distributed Reservoir Sampling), and the Recording Module accumulates
// each (flow, hop)'s sampled sub-stream for quantile inference —
// Theorem 1's median/tail-latency estimator.
type LatencyQuery struct {
	name string
	bits int
	freq float64
	g    hash.Global
	comp *approx.MultCompressor
}

// NewLatencyQuery builds a latency-quantile query with the given digest
// budget, at most 8 bits: the Recording counts one-byte codes (latStore).
// eps is the multiplicative compression error (§6.2 pairs b=8 with fine
// eps and b=4 with coarse; the value floor in Fig 9 comes from here).
func NewLatencyQuery(name string, bits int, eps, freq float64, master hash.Seed) (*LatencyQuery, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("core: latency query %q: %d bits out of [1,8]: the recording counts one-byte codes", name, bits)
	}
	comp, err := approx.NewMultCompressor(eps, bits)
	if err != nil {
		return nil, err
	}
	g := hash.NewGlobal(master.Derive(hash.Seed(0).HashString(name)))
	return &LatencyQuery{name: name, bits: bits, freq: freq, g: g, comp: comp}, nil
}

// Name implements Query.
func (q *LatencyQuery) Name() string { return q.name }

// Agg implements Query.
func (q *LatencyQuery) Agg() AggregationType { return DynamicPerFlow }

// Bits implements Query.
func (q *LatencyQuery) Bits() int { return q.bits }

// Frequency implements Query.
func (q *LatencyQuery) Frequency() float64 { return q.freq }

// Winner recomputes which hop's value a sink-captured packet carries.
func (q *LatencyQuery) Winner(pktID uint64, k int) int {
	return q.g.ReservoirWinner(pktID, k)
}

// Decode maps a digest code back to an approximate value.
func (q *LatencyQuery) Decode(code uint64) float64 { return q.comp.Decode(code) }

// UtilQuery is the per-packet aggregation (§4.3, Example #3): each switch
// compresses its observed value (canonically the link utilization scaled
// to an integer) and the digest keeps the maximum — the path's bottleneck
// — using randomized rounding so the aggregate is unbiased.
type UtilQuery struct {
	name  string
	bits  int
	freq  float64
	g     hash.Global
	comp  *approx.MultCompressor
	scale float64
}

// NewUtilQuery builds a bottleneck-utilization query. scale maps the
// dimensionless utilization into the compressor's v >= 1 domain (1000 by
// convention: U=1.0 → 1001).
func NewUtilQuery(name string, bits int, eps, freq, scale float64, master hash.Seed) (*UtilQuery, error) {
	if !(scale > 0 && scale <= math.MaxFloat64) {
		return nil, fmt.Errorf("core: scale %v must be positive and finite", scale)
	}
	comp, err := approx.NewMultCompressor(eps, bits)
	if err != nil {
		return nil, err
	}
	g := hash.NewGlobal(master.Derive(hash.Seed(0).HashString(name)))
	return &UtilQuery{name: name, bits: bits, freq: freq, g: g, comp: comp, scale: scale}, nil
}

// Name implements Query.
func (q *UtilQuery) Name() string { return q.name }

// Agg implements Query.
func (q *UtilQuery) Agg() AggregationType { return PerPacket }

// Bits implements Query.
func (q *UtilQuery) Bits() int { return q.bits }

// Frequency implements Query.
func (q *UtilQuery) Frequency() float64 { return q.freq }

// EncodeValue scales a dimensionless utilization into the integer register
// units HopValues.Util carries (helper for simulation hooks).
func (q *UtilQuery) EncodeValue(u float64) uint64 {
	if u < 0 {
		u = 0
	}
	return uint64(u*q.scale) + 1
}

// Decode maps a digest code back to a dimensionless utilization.
func (q *UtilQuery) Decode(code uint64) float64 {
	v := q.comp.Decode(code)
	u := (v - 1) / q.scale
	if u < 0 {
		u = 0
	}
	return u
}
