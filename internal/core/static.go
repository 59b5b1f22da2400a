package core

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/hash"
)

// PathQuery is the static per-flow aggregation (§4.2, Example #2): recover
// the per-(flow, switch) constant values — canonically the switch IDs,
// i.e. the flow's path — by spreading them across packets with the
// distributed coding schemes.
type PathQuery struct {
	name string
	cfg  coding.Config
	freq float64
	enc  *coding.Encoder
	// plan is the decode side every flow's decoder shares: built and
	// checked once here, so a flow's first packet costs only its own state.
	plan *coding.Plan
}

// NewPathQuery builds a path-tracing query. cfg must be hashed-mode coding
// (DefaultPathConfig builds one): the engine compiles no other; raw and
// fragmented coding run only in internal/coding's simulations. cfg.Bits is
// the budget of one hash instance; the query's total footprint is
// cfg.TotalBits(). universe is the switch-ID universe the decoder matches
// hashes against — distinct values, at least one.
func NewPathQuery(name string, cfg coding.Config, freq float64, master hash.Seed, universe []uint64) (*PathQuery, error) {
	if cfg.Mode != coding.ModeHashed {
		return nil, fmt.Errorf("core: path query %q: %v coding is not compiled; the engine runs hashed path queries only", name, cfg.Mode)
	}
	g := hash.NewGlobal(master.Derive(hash.Seed(0).HashString(name)))
	enc, err := coding.NewEncoder(cfg, g)
	if err != nil {
		return nil, err
	}
	plan, err := coding.NewPlan(enc, universe)
	if err != nil {
		return nil, err
	}
	return &PathQuery{name: name, cfg: cfg, freq: freq, enc: enc, plan: plan}, nil
}

// Name implements Query.
func (q *PathQuery) Name() string { return q.name }

// Agg implements Query.
func (q *PathQuery) Agg() AggregationType { return StaticPerFlow }

// Bits implements Query: the full slice including all hash instances.
func (q *PathQuery) Bits() int { return q.cfg.TotalBits() }

// Frequency implements Query.
func (q *PathQuery) Frequency() float64 { return q.freq }

// unpackWords splits a path query's flat digest slice into its n
// per-instance words of the given width. The words live in buf — the
// caller's stack — so nothing is allocated for up to len(buf) instances.
func unpackWords(buf *[8]uint64, bits uint64, n int, width uint, mask uint64) []uint64 {
	words := buf[:]
	if n > len(buf) {
		words = make([]uint64, n)
	}
	words = words[:n]
	for i := range words {
		words[i] = bits >> (uint(i) * width) & mask
	}
	return words
}

func (q *PathQuery) instances() int { return max(q.cfg.Instances, 1) }

// NewDecoder creates the Inference-side decoder for one flow whose path
// length is k (known from the packet TTL at the sink, §4.1).
func (q *PathQuery) NewDecoder(k int) (*coding.Decoder, error) {
	return q.plan.NewDecoder(k)
}

// ObserveInto feeds one extracted digest slice into a flow's decoder. The
// decoder copies the words it keeps, so they are unpacked on the stack.
func (q *PathQuery) ObserveInto(dec *coding.Decoder, pktID uint64, bits uint64) bool {
	var buf [8]uint64
	words := unpackWords(&buf, bits, q.instances(), uint(q.cfg.Bits), digestMask(q.cfg.Bits))
	return dec.Observe(pktID, coding.Digest{Words: words})
}

// DefaultPathConfig mirrors the evaluation's standard setup: hashed mode
// against the topology's switch IDs, multi-layer (revised) layering for an
// assumed path length d, and the given per-instance budget and instance
// count (Fig 10 uses b=1, b=4, and 2×(b=8)).
func DefaultPathConfig(bits, instances, d int) (coding.Config, error) {
	if bits < 1 {
		return coding.Config{}, fmt.Errorf("core: path budget %d invalid", bits)
	}
	return coding.Config{
		Bits:      bits,
		Mode:      coding.ModeHashed,
		Instances: instances,
		Layering:  coding.MultiLayer(d, true),
	}, nil
}
