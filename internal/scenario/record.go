package scenario

import (
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// The recording path the digest-recording trials share: engine batch
// encode → wire marshal/unmarshal → sharded sink.

// shipBlocks runs an encoded packet block switch→collector: wire round
// trip, then sink ingest. The returned buffers are reused across calls.
func shipBlocks(sink *pipeline.Sink, pkts []core.PacketDigest, wireBuf []byte, rx []core.PacketDigest) ([]byte, []core.PacketDigest, error) {
	rx, wireBuf, err := wire.Roundtrip(rx, wireBuf, pkts)
	if err != nil {
		return wireBuf, rx, err
	}
	sink.Ingest(rx)
	return wireBuf, rx, nil
}

// encodeHopStreams stamps pkts with fresh IDs from rng and encodes every
// hop's stream into them: packet j consumes sample j of each hop's stream
// (every hop observed the packet; only the reservoir winner's value
// survives). vals is scratch of the same length as pkts.
func encodeHopStreams(eng *core.Engine, streams [][]float64, flow core.FlowKey, rng *hash.RNG, pkts []core.PacketDigest, vals []core.HopValues) {
	for j := range pkts {
		pkts[j] = core.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(streams)}
	}
	for hop, st := range streams {
		for j := range vals {
			vals[j].LatencyNs = uint64(st[j%len(st)])
		}
		eng.EncodeHopBatch(hop+1, pkts, vals)
	}
}

// recordPackets ships an encoded batch through the wire format (the
// switch→collector transfer) and ingests the decoded copy through the
// sharded sink — the production collector stack on every latency trial,
// serial included. It returns the Recording that owns `flow`'s state;
// answers are bit-identical to recording the in-memory batch directly,
// for any shard count.
func recordPackets(eng *core.Engine, pkts []core.PacketDigest, shards int, flow core.FlowKey) (*core.Recording, error) {
	sink, err := pipeline.NewSink(eng, pipeline.Config{Shards: shards})
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	if _, _, err := shipBlocks(sink, pkts, nil, nil); err != nil {
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return sink.Recording(flow), nil
}
