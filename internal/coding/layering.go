// Package coding implements PINT's distributed encoding schemes (§4.2):
// the message M₁…M_k is split across the k switches on a flow's path, each
// switch holding exactly one block, and the receiver must reconstruct all
// blocks from a stream of b-bit packet digests.
//
// Schemes provided:
//
//   - Baseline — each packet carries one uniformly-sampled block
//     (Reservoir Sampling over the path); decoding is the Coupon
//     Collector process, Θ(k ln k) packets.
//   - XOR — each switch xors its block in independently with probability
//     p = 1/d; decoding peels packets with a single unknown block.
//   - Hybrid — interleaves Baseline (probability τ) with one XOR layer,
//     the combination Fig 5 shows dominating both.
//   - Multi-layer — Algorithm 1: Baseline plus L XOR layers with
//     probabilities p_ℓ = e↑↑(ℓ−1)/d, achieving k·log log* k (1+o(1))
//     packets (Theorem 3).
//   - LNC — Linear Network Coding comparator [32]: every switch xors with
//     probability 1/2 and the receiver solves a GF(2) linear system,
//     ≈ k + log₂k packets but with O(k³) decoding and no sub-value-width
//     hashing support (§4.2, "Comparison with Linear Network Coding").
//
// Two digest modes are supported, mirroring §4.2's two bit-reduction
// techniques: raw blocks with *fragmentation* (values wider than the
// budget are split into ⌈q/b⌉ fragments, a per-packet hash picking which
// fragment travels), and *hashed values* (the digest is h(M_i, pkt),
// decodable against a known universe V of possible values, e.g. the set
// of switch IDs). Hashed mode also supports multiple independent hash
// instances ("2×(b=8)" in Fig 10).
//
// The receiving side is split by lifetime. A Plan is what every flow of a
// query shares: the Encoder's configuration and hash families plus the
// value universe, validated once (NewPlan). A Decoder is one flow's
// state, flat and small — solved blocks, one candidate bitset over the
// universe index per hop, a slab of stored packets at a fixed stride —
// and these words are the hand-off format between collectors, which
// Plan.Check accepts only as a state observing could have reached.
// Frozen-share rule: once Done, a Decoder
// writes nothing but its observed/inconsistent counters, so Clone of a
// finished decoder copies the struct and shares the state, and both sides
// may keep observing concurrently; an unfinished decoder is deep-copied.
package coding

import (
	"fmt"
	"math"
)

// Log2Star returns the base-2 iterated logarithm: the number of times log₂
// must be applied to x before the result is at most 1.
func Log2Star(x float64) int {
	n := 0
	for x > 1 {
		x = math.Log2(x)
		n++
	}
	return n
}

// IterExpE returns e↑↑n (Knuth's iterated exponentiation): e↑↑0 = 1,
// e↑↑n = e^(e↑↑(n−1)). Saturates at +Inf quickly; callers clamp.
func IterExpE(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v = math.Exp(v)
		if math.IsInf(v, 1) {
			return v
		}
	}
	return v
}

// Layering describes how packets are split between the Baseline layer
// (layer 0) and the XOR layers 1..L, and with what xor probability each
// XOR layer acts. It is shared verbatim by encoders and decoders — the
// whole point of global-hash coordination.
type Layering struct {
	// Tau is the probability a packet serves the Baseline layer.
	Tau float64
	// Probs[ℓ-1] is the xor probability of XOR layer ℓ. Empty means the
	// scheme is pure Baseline.
	Probs []float64
}

// PureBaseline is the coupon-collector scheme: every packet samples one
// uniform hop.
func PureBaseline() Layering { return Layering{Tau: 1} }

// PureXOR is the single-layer xor scheme with probability p (Fig 5's "XOR"
// curve uses p = 1/d).
func PureXOR(p float64) Layering { return Layering{Tau: 0, Probs: []float64{clampProb(p)}} }

// Hybrid interleaves Baseline with one XOR layer as in §4.2: packets run
// Baseline with probability tau (the paper sets 3/4) and otherwise xor with
// probability log log d / log d (footnote 8: 1/log d when d ≤ 15, where
// log log d would dip below... 1).
func Hybrid(d int, tau float64) Layering {
	if d < 2 {
		d = 2
	}
	logd := math.Log2(float64(d))
	var p float64
	if float64(d) <= 15 {
		p = 1 / logd
	} else {
		p = math.Log2(logd) / logd
	}
	return Layering{Tau: tau, Probs: []float64{clampProb(p)}}
}

// MultiLayer builds Algorithm 1's layering for assumed path length d:
// L = ⌈log* d̃⌉ XOR layers (one for d ≤ 15, two up to e^e^e) with
// p_ℓ = e↑↑(ℓ−1)/d, and Baseline probability τ. With revised=false,
// τ = log log* d / (1 + log log* d) (Algorithm 1); with revised=true,
// τ = (1 + log log* d) / (2 + log log* d) (Appendix A.3), which strictly
// reduces the expected packet count and is the default used by the core
// framework.
func MultiLayer(d int, revised bool) Layering {
	if d < 2 {
		d = 2
	}
	L := numLayers(d)
	llsd := math.Log2(float64(Log2Star(float64(d))))
	if llsd < 0 {
		llsd = 0
	}
	var tau float64
	if revised {
		tau = (1 + llsd) / (2 + llsd)
	} else {
		tau = llsd / (1 + llsd)
	}
	probs := make([]float64, L)
	for l := 1; l <= L; l++ {
		probs[l-1] = clampProb(IterExpE(l-1) / float64(d))
	}
	return Layering{Tau: tau, Probs: probs}
}

// numLayers realizes the paper's L(d): 1 for d ≤ 15 (⌊e^e⌋), 2 up to
// e^(e^e), and in general the least L with e↑↑(L+1) ≥ d.
func numLayers(d int) int {
	L := 1
	for IterExpE(L+1) < float64(d) {
		L++
		if L >= 4 { // e↑↑5 is astronomically larger than any path length
			break
		}
	}
	return L
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Layers returns the number of XOR layers.
func (l Layering) Layers() int { return len(l.Probs) }

// Validate checks the layering is usable.
func (l Layering) Validate() error {
	if l.Tau < 0 || l.Tau > 1 {
		return fmt.Errorf("coding: tau %v out of [0,1]", l.Tau)
	}
	if l.Tau < 1 && len(l.Probs) == 0 {
		return fmt.Errorf("coding: tau < 1 requires at least one XOR layer")
	}
	for i, p := range l.Probs {
		if p <= 0 || p > 1 {
			return fmt.Errorf("coding: layer %d probability %v out of (0,1]", i+1, p)
		}
	}
	return nil
}

// Select maps a packet's layer-point u in [0,1) to a layer: 0 for Baseline,
// 1..L for the XOR layers (chosen uniformly among them), exactly as
// Algorithm 1 line 6 does with ℓ = ⌈L·(H−τ)/(1−τ)⌉.
func (l Layering) Select(u float64) int {
	if u < l.Tau || len(l.Probs) == 0 {
		return 0
	}
	L := float64(len(l.Probs))
	ell := int(math.Ceil(L * (u - l.Tau) / (1 - l.Tau)))
	if ell < 1 {
		ell = 1
	}
	if ell > len(l.Probs) {
		ell = len(l.Probs)
	}
	return ell
}
