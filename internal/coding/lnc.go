package coding

import (
	"fmt"

	"repro/internal/hash"
)

// LNC implements the Linear Network Coding comparator of §4.2 [32]: every
// hop xors its raw block onto the digest independently with probability
// 1/2 (selection via the global hash, so the receiver knows each packet's
// coefficient vector). Decoding is Gaussian elimination over GF(2): the
// message is recovered once the accumulated coefficient vectors reach rank
// k, which takes ≈ k + log₂k packets — near-optimal in packets, but cubic
// in decode time and incompatible with sub-value-width hashing, which is
// why PINT prefers the multi-layer XOR scheme.
type LNC struct {
	g hash.Global
	k int
	// rows are the reduced system: rows[i] has pivot bit i when present.
	rows   []lncRow
	pivots []int // pivots[i] = row index with pivot at bit i, or -1
	rank   int
}

type lncRow struct {
	coeff uint64 // GF(2) coefficient vector over the k blocks
	val   uint64 // running xor of the corresponding digests
}

// NewLNC builds an LNC encoder/decoder pair context for k blocks (k <= 64).
func NewLNC(g hash.Global, k int) (*LNC, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("coding: LNC path length %d out of [1,64]", k)
	}
	l := &LNC{g: g, k: k, pivots: make([]int, k)}
	for i := range l.pivots {
		l.pivots[i] = -1
	}
	return l, nil
}

// coeffVector returns the packet's GF(2) coefficient vector: bit i set iff
// hop i+1 xors. Probability 1/2 per hop, decided by the global hash.
func (l *LNC) coeffVector(pktID uint64) uint64 {
	var m uint64
	for hop := 1; hop <= l.k; hop++ {
		if l.g.Act(pktID, hop, 0.5) {
			m |= 1 << uint(hop-1)
		}
	}
	return m
}

// Encode produces the digest hop-by-hop for a packet over the true blocks
// (the full-width xor ∑ M_i over the selected hops).
func (l *LNC) Encode(pktID uint64, blocks []uint64) uint64 {
	var dig uint64
	for i, b := range blocks {
		if l.g.Act(pktID, i+1, 0.5) {
			dig ^= b
		}
	}
	return dig
}

// Observe feeds one (packet, digest) pair into the elimination. It returns
// true once rank k is reached (message decodable).
func (l *LNC) Observe(pktID uint64, digest uint64) bool {
	coeff := l.coeffVector(pktID)
	val := digest
	// Reduce against existing pivots.
	for coeff != 0 {
		low := trailingBit(coeff)
		r := l.pivots[low]
		if r < 0 {
			// New pivot.
			l.rows = append(l.rows, lncRow{coeff: coeff, val: val})
			l.pivots[low] = len(l.rows) - 1
			l.rank++
			return l.rank == l.k
		}
		coeff ^= l.rows[r].coeff
		val ^= l.rows[r].val
	}
	return l.rank == l.k
}

// Done reports whether the message is decodable.
func (l *LNC) Done() bool { return l.rank == l.k }

func trailingBit(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}
