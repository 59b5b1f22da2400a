package scenario

import (
	"repro/internal/core"
	"repro/internal/hash"
)

// The encode-and-record helpers the digest-recording trials share: engine
// batch encode, then a Recording of the digests.

// encodeHopStreams stamps pkts with fresh IDs from rng and encodes every
// hop's stream into them in one EncodeHops call: packet j consumes sample
// j of each hop's stream (every hop observed the packet; only the
// reservoir winner's value survives). vals is scratch from hopColumns,
// one column per stream, each as long as pkts.
func encodeHopStreams(eng *core.Engine, streams [][]float64, flow core.FlowKey, rng *hash.RNG, pkts []core.PacketDigest, vals [][]core.HopValues) {
	for j := range pkts {
		pkts[j] = core.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(streams)}
	}
	for hop, st := range streams {
		col := vals[hop]
		for j := range pkts {
			col[j].LatencyNs = uint64(st[j%len(st)])
		}
	}
	eng.EncodeHops(1, pkts, vals)
}

// hopColumns returns k value columns of n entries each, cut from one
// buffer: the scratch an EncodeHops call over k hops takes.
func hopColumns(k, n int) [][]core.HopValues {
	buf := make([]core.HopValues, k*n)
	cols := make([][]core.HopValues, k)
	for h := range cols {
		cols[h] = buf[h*n : (h+1)*n : (h+1)*n]
	}
	return cols
}

// recordPackets records an encoded batch into a fresh Recording.
func recordPackets(eng *core.Engine, pkts []core.PacketDigest) (*core.Recording, error) {
	rec, err := core.NewRecording(eng)
	if err != nil {
		return nil, err
	}
	if err := rec.RecordBatch(pkts); err != nil {
		return nil, err
	}
	return rec, nil
}
