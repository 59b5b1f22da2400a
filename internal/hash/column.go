package hash

import "repro/internal/kernels"

// Column helpers: batch evaluations of the global hash family over flat
// []uint64 columns, backing the op-major encode hot path. Each is
// bit-identical to mapping the corresponding scalar method over the
// column — internal/kernels carries the vectorized bodies and the
// equivalence tests that pin them to the scalar reference.

// ActHashColumn fills dst[i] = g(pktIDs[i], hop), the raw act-decision
// hash behind Act/ActBelow/ReservoirWrites, with the hop argument
// loop-invariant. Callers compare the column against a hoisted
// Threshold/ReservoirThreshold value. dst and pktIDs must have equal
// length.
func (g *Global) ActHashColumn(dst, pktIDs []uint64, hop uint64) {
	kernels.HashPktHop(dst, pktIDs, uint64(g.g), hop)
}

// ActKeyColumn fills dst[i] with the half of g(pktIDs[i], hop) that does
// not depend on the hop, so ActAt(dst[i], hop) is g(pktIDs[i], hop) for
// every hop: a pass that decides one packet at many hops runs the first
// hash round once, as ReservoirWinner does. dst and pktIDs must have
// equal length.
func (g *Global) ActKeyColumn(dst, pktIDs []uint64) {
	dst = dst[:len(pktIDs)]
	for i, p := range pktIDs {
		dst[i] = g.g.hash2First(p)
	}
}

// ActAt completes g(pkt, hop) from pkt's ActKeyColumn entry.
func ActAt(key, hop uint64) uint64 { return hash2Second(key, hop) }

// ValueDigestColumn fills dst[i] = ValueDigest(values[i], pktIDs[i], b).
// All three columns must have equal length.
func (g *Global) ValueDigestColumn(dst, values, pktIDs []uint64, b int) {
	kernels.Hash2Cols(dst, values, pktIDs, uint64(g.h))
	switch {
	case b >= 64:
	case b <= 0:
		for i := range dst {
			dst[i] = 0
		}
	default:
		shift := 64 - uint(b)
		for i, h := range dst {
			dst[i] = h >> shift
		}
	}
}

// ValueHashColumn fills dst[i] = h(values[i], pktID), the untruncated
// value hash behind ValueDigest (its top b bits), with the packet
// loop-invariant: one packet's digest against a column of candidate
// values, the shape of the path decoder's first candidate filter. dst and
// values must have equal length.
func (g *Global) ValueHashColumn(dst, values []uint64, pktID uint64) {
	kernels.HashPktHop(dst, values, uint64(g.h), pktID)
}

// ReservoirThreshold returns the integer threshold T such that, for
// hop >= 2, ReservoirWrites(pkt, hop) is exactly g(pkt, hop) < T. Hops
// <= 1 always write and have no threshold — batch callers special-case
// them before hoisting T out of the per-packet loop.
func ReservoirThreshold(hop int) uint64 {
	if hop < len(reservoirThreshold) {
		if hop < 2 {
			return ^uint64(0)
		}
		return reservoirThreshold[hop]
	}
	// Beyond the table ReservoirWrites falls back to Below(h, 1/hop);
	// Threshold computes the identical floor expression.
	return Threshold(1 / float64(hop))
}
