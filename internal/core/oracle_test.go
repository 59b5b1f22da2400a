package core

import (
	"testing"

	"repro/internal/coding"
)

// oracleEncodeHop is the reference the column passes of soa.go are held to:
// what hop `hop` does to one packet, packet by packet and query by query,
// restated from the algorithm packages' own definitions —
// coding.Encoder.EncodeHop for distributed coding, hash.Global's
// ReservoirWrites for the reservoir, MultCompressor.Encode and
// EncodeRandomized for value approximation — and from the plan as Compile
// published it (Plan().Sets), not
// the lowered ops. It shares no helper with the passes: no hash columns, no
// threshold tables, no memoized decompositions, no word pack/unpack from
// static.go. It also leaves in pkt what EncodeHopBatch caches there (the
// set selection and the first two path queries' layers), so a test can
// compare whole PacketDigests.
func oracleEncodeHop(e *Engine, hop int, pkt *PacketDigest, v *HopValues) {
	id := pkt.PktID
	var set *QuerySet
	pkt.set = -1
	u, cum := e.g.QueryPoint(id), 0.0
	for si := range e.plan.Sets {
		if cum += e.plan.Sets[si].Prob; u < cum {
			set, pkt.set = &e.plan.Sets[si], int16(si+1)
			break
		}
	}
	if set == nil {
		return
	}
	nPath := 0
	for qi, q := range set.Queries {
		off, mask := uint(set.Offsets[qi]), uint64(1)<<uint(q.Bits())-1
		slice := pkt.Digest >> off & mask
		switch q := q.(type) {
		case *PathQuery:
			if nPath < len(pkt.layers) {
				pkt.layers[nPath] = uint8(q.enc.LayerOf(id) + 1)
			}
			nPath++
			// The slice is the hash instances' words, instance 0 lowest.
			n, width := 1, uint(q.cfg.Bits)
			if q.cfg.Mode == coding.ModeHashed && q.cfg.Instances > 1 {
				n = q.cfg.Instances
			}
			d := coding.Digest{Words: make([]uint64, n)}
			for i := range d.Words {
				d.Words[i] = slice >> (uint(i) * width) & (1<<width - 1)
			}
			d = q.enc.EncodeHop(id, hop, d, v.SwitchID)
			slice = 0
			for i, w := range d.Words {
				slice |= w & (1<<width - 1) << (uint(i) * width)
			}
		case *LatencyQuery:
			if q.g.ReservoirWrites(id, hop) {
				slice = q.comp.Encode(float64(v.LatencyNs))
			}
		case *UtilQuery:
			if code := q.comp.EncodeRandomized(float64(v.Util), q.g, id+uint64(hop)<<48); code > slice {
				slice = code
			}
		}
		pkt.Digest = pkt.Digest&^(mask<<off) | (slice&mask)<<off
	}
}

// checkParity runs a batch through EncodeHopBatch and through the oracle
// hop by hop and requires bit-identical packets — digests *and* the
// set/layer caches — after every hop; each packet alone through
// EncodeHopValues must carry the same digest.
func checkParity(t *testing.T, eng *Engine, pkts []PacketDigest, vals []HopValues, hops []int) {
	t.Helper()
	want := append([]PacketDigest(nil), pkts...)
	single := make([]uint64, len(pkts))
	for i := range pkts {
		single[i] = pkts[i].Digest
	}
	for _, hop := range hops {
		for i := range want {
			oracleEncodeHop(eng, hop, &want[i], &vals[i])
		}
		eng.EncodeHopBatch(hop, pkts, vals)
		for i := range pkts {
			if pkts[i] != want[i] {
				t.Fatalf("n=%d hop=%d pkt %d diverged:\noracle %+v\npasses %+v",
					len(pkts), hop, i, want[i], pkts[i])
			}
			single[i] = eng.EncodeHopValues(pkts[i].PktID, hop, single[i], &vals[i])
			if single[i] != want[i].Digest {
				t.Fatalf("n=%d hop=%d pkt %d: EncodeHopValues %#x, oracle %#x",
					len(pkts), hop, i, single[i], want[i].Digest)
			}
		}
	}
}
