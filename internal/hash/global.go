package hash

import "math"

// Global bundles the family of global hash functions a PINT deployment
// shares between switches and the inference plane (§4.1). Every probabilistic
// decision in the system flows through one of these methods, so an encoder
// (simulated switch) and a decoder (Recording/Inference module) reach
// identical conclusions about every packet without exchanging a single bit.
type Global struct {
	q    Seed // query-set selection hash
	g    Seed // act-decision hash g(pkt, hop)
	h    Seed // value hash h(value, pkt)
	frag Seed // fragment-selection hash (§4.2, fragmentation)
	lyr  Seed // layer-selection hash (Algorithm 1, line 1)
}

// NewGlobal derives the full family from one master seed. Each member is
// derived on its own (Derive(i)), so the set of members is free to change
// without moving any other member's decisions.
func NewGlobal(master Seed) Global {
	return Global{
		q:    master.Derive(1),
		g:    master.Derive(2),
		h:    master.Derive(3),
		frag: master.Derive(4),
		lyr:  master.Derive(5),
	}
}

// QueryPoint returns q(pkt) in [0,1): the coordinate used to pick the query
// set a packet serves. All switches evaluate this identically (§3.4).
func (g Global) QueryPoint(pktID uint64) float64 {
	return Unit(g.q.Hash1(pktID))
}

// LayerPoint returns H(pkt) in [0,1) used by Algorithm 1 to choose between
// the Baseline layer (H < tau) and one of the XOR layers.
func (g Global) LayerPoint(pktID uint64) float64 {
	return Unit(g.lyr.Hash1(pktID))
}

// Act reports whether the hop at 1-based position `hop` acts on packet
// pktID with probability p: the comparison g(pkt, hop) < p of §4.1.
func (g Global) Act(pktID uint64, hop int, p float64) bool {
	return Below(g.g.Hash2(pktID, uint64(hop)), p)
}

// ReservoirWrites reports whether hop i (1-based) overwrites the digest
// under Reservoir Sampling, i.e. g(pkt, i) < 1/i (§4.1, Example #1).
func (g Global) ReservoirWrites(pktID uint64, hop int) bool {
	if hop <= 1 {
		return true
	}
	h := g.g.Hash2(pktID, uint64(hop))
	if hop < len(reservoirThreshold) {
		return h < reservoirThreshold[hop]
	}
	return Below(h, 1/float64(hop))
}

// reservoirThreshold[h] is Below's integer threshold for p = 1/h,
// precomputed with the identical float expression Below evaluates so the
// table lookup and the live computation decide every packet the same way.
var reservoirThreshold = func() [65]uint64 {
	var t [65]uint64
	for h := 2; h < len(t); h++ {
		t[h] = uint64(math.Floor(1 / float64(h) * (1 << 32) * (1 << 32)))
	}
	return t
}()

// ReservoirWritesP is ReservoirWrites on a pointer receiver, so the
// compiled per-packet loops skip the 40-byte Global copy per hop.
// Decisions are bit-identical to ReservoirWrites.
func (g *Global) ReservoirWritesP(pktID uint64, hop int) bool {
	if hop <= 1 {
		return true
	}
	h := g.g.Hash2(pktID, uint64(hop))
	if hop < len(reservoirThreshold) {
		return h < reservoirThreshold[hop]
	}
	return Below(h, 1/float64(hop))
}

// Threshold returns Below's integer threshold for probability p, i.e.
// event "Hash < Threshold(p)" fires exactly when Below(Hash, p) does.
// Callers with a fixed p hoist it out of per-packet loops.
func Threshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	}
	t := math.Floor(p * (1 << 32) * (1 << 32))
	if t >= math.MaxUint64 {
		return ^uint64(0)
	}
	return uint64(t)
}

// ActBelow is Act with a precomputed Threshold, for compiled hot loops.
// A saturated threshold means p >= 1 and always fires, mirroring Below's
// p >= 1 branch (a plain < would miss the hash value 2^64-1).
func (g *Global) ActBelow(pktID uint64, hop int, threshold uint64) bool {
	if threshold == ^uint64(0) {
		return true
	}
	return g.g.Hash2(pktID, uint64(hop)) < threshold
}

// ActMask returns the hops among 1..k that ActBelow reports acting on
// pktID, hop i as bit i-1, running g's first round on the packet ID once
// for all of them. k is at most 64.
func (g *Global) ActMask(pktID uint64, k int, threshold uint64) uint64 {
	if threshold == ^uint64(0) {
		return ^uint64(0) >> uint(64-k)
	}
	first, mask := g.g.hash2First(pktID), uint64(0)
	for i := 1; i <= k; i++ {
		if hash2Second(first, uint64(i)) < threshold {
			mask |= 1 << uint(i-1)
		}
	}
	return mask
}

// ReservoirWinner returns the 1-based hop whose value survives on a packet
// that traversed k hops under reservoir sampling: the *last* hop i with
// g(pkt,i) < 1/i. This is the computation the Recording Module performs to
// attribute a digest to a hop without any hop ID on the wire. The first hop
// always writes, so a winner always exists for k >= 1.
//
// It runs g's first round on the packet ID once for all k hops, and
// decides the hops the threshold table covers in a loop of their own.
func (g Global) ReservoirWinner(pktID uint64, k int) int {
	first, w := g.g.hash2First(pktID), 1
	n := min(k, len(reservoirThreshold)-1)
	for i := 2; i <= n; i++ {
		if hash2Second(first, uint64(i)) < reservoirThreshold[i] {
			w = i
		}
	}
	for i := n + 1; i <= k; i++ {
		if Below(hash2Second(first, uint64(i)), 1/float64(i)) {
			w = i
		}
	}
	return w
}

// ValueDigest returns h(value, pkt) truncated to b bits: the hashed-value
// encoding of §4.2 that lets PINT meet budgets narrower than the value.
func (g Global) ValueDigest(value, pktID uint64, b int) uint64 {
	return Bits(g.h.Hash2(value, pktID), b)
}

// Fragment maps a packet to a fragment index in {0, …, nfrag-1} (§4.2,
// "Reducing the Bit-overhead using Fragmentation").
func (g Global) Fragment(pktID uint64, nfrag int) int {
	if nfrag <= 1 {
		return 0
	}
	return int(g.frag.Hash1(pktID) % uint64(nfrag))
}

// Instance re-keys the family for one of several independent repetitions of
// an algorithm ("Improving Performance via Multiple Instantiations", §4.2).
func (g Global) Instance(i int) Global {
	return NewGlobal(g.q.Derive(uint64(i) + 101))
}
