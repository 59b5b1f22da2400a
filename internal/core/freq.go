package core

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/hash"
)

// FreqQuery is the second dynamic per-flow aggregation the paper analyzes
// (Theorem 2): report every value that appears in at least a θ-fraction
// of a (flow, switch) pair's stream — e.g. which egress port or next-hop
// a switch used for the flow's packets. Like LatencyQuery it rides the
// distributed reservoir sample, but values are carried verbatim, so the
// value domain must fit the bit budget (ports, ToS classes, small enums).
type FreqQuery struct {
	name string
	bits int
	freq float64
	g    hash.Global
}

// NewFreqQuery builds a frequent-values query with the given digest
// budget; observed values must be < 2^bits.
func NewFreqQuery(name string, bits int, freq float64, master hash.Seed) (*FreqQuery, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("core: freq query bits %d out of [1,32]", bits)
	}
	g := hash.NewGlobal(master.Derive(hash.Seed(0).HashString(name)))
	return &FreqQuery{name: name, bits: bits, freq: freq, g: g}, nil
}

// Name implements Query.
func (q *FreqQuery) Name() string { return q.name }

// Agg implements Query.
func (q *FreqQuery) Agg() AggregationType { return DynamicPerFlow }

// Bits implements Query.
func (q *FreqQuery) Bits() int { return q.bits }

// Frequency implements Query.
func (q *FreqQuery) Frequency() float64 { return q.freq }

// Winner recomputes the sampled hop for a sink-captured packet.
func (q *FreqQuery) Winner(pktID uint64, k int) int {
	return q.g.ReservoirWinner(pktID, k)
}

// CountQuery is the randomized-counting per-packet aggregation of §4.3:
// count, across the path, the hops where an indicator fired (e.g.
// "latency above threshold"), in fewer bits than the exact count needs.
// Each firing hop probabilistically increments a Morris counter carried in
// the digest; the expectation of the decoded value equals the true count.
type CountQuery struct {
	name string
	bits int
	freq float64
	eps  float64
	g    hash.Global
}

// NewCountQuery builds a randomized counter query with accuracy parameter
// eps (the counter is within (1+eps) with constant probability) and the
// given digest width — typically far below log2(k)+q exact bits
// (approx.MorrisBits gives the requirement).
func NewCountQuery(name string, bits int, eps, freq float64, master hash.Seed) (*CountQuery, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("core: count query bits %d out of [1,16]", bits)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: count eps %v out of (0,1)", eps)
	}
	g := hash.NewGlobal(master.Derive(hash.Seed(0).HashString(name)))
	return &CountQuery{name: name, bits: bits, freq: freq, eps: eps, g: g}, nil
}

// Name implements Query.
func (q *CountQuery) Name() string { return q.name }

// Agg implements Query.
func (q *CountQuery) Agg() AggregationType { return PerPacket }

// Bits implements Query.
func (q *CountQuery) Bits() int { return q.bits }

// Frequency implements Query.
func (q *CountQuery) Frequency() float64 { return q.freq }

// Decode returns the count estimate for a digest code.
func (q *CountQuery) Decode(code uint64) float64 {
	m := approx.NewMorris(q.eps, q.bits)
	m.SetCode(code)
	return m.Estimate()
}
