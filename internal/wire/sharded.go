package wire

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hash"
)

// This file is the fused decode-and-shard pass of the parallel collector
// ingest path: one unmarshal that lands every record directly in its
// flow's shard staging buffer, computing the flow→shard hash while the
// deltas are still in registers. Compared to a whole-batch decode followed
// by a routing loop it eliminates the intermediate slice and the second
// pass over the decoded packets.

// AppendUnmarshalSharded decodes a marshaled batch, appending each packet
// to dsts[hash.ShardOf(flow, len(dsts))] — the same routing function
// pipeline.Sink uses — and returns the packet count. dsts must be
// non-empty; with a single destination the per-packet hash is skipped
// entirely (routing is the identity).
//
// This is the package's one record-decode loop: AppendUnmarshal is this
// function with a single destination it sized beforehand, so the two accept
// the same frames and fail with the same text, and FuzzUnmarshalSharded
// holds the loop to the byte-at-a-time reference. On error the contents of
// dsts are unspecified — packets decoded before the error may already be
// staged — so callers must discard the staged state (Stage.Reset, or a
// connection teardown) instead of ingesting it.
func AppendUnmarshalSharded(dsts [][]core.PacketDigest, data []byte) (int, error) {
	if len(dsts) == 0 {
		return 0, fmt.Errorf("wire: sharded unmarshal needs at least one destination")
	}
	count, rest, err := batchHeader(data)
	if err != nil {
		return 0, err
	}
	mod := uint64(len(dsts))
	var prevFlow, prevID uint64
	var prevLen int64
	for i := uint64(0); i < count; i++ {
		dFlow, n, err := varintFast(rest)
		if err != nil {
			return 0, fmt.Errorf("wire: packet %d flow: %w", i, err)
		}
		rest = rest[n:]
		dID, n, err := varintFast(rest)
		if err != nil {
			return 0, fmt.Errorf("wire: packet %d id: %w", i, err)
		}
		rest = rest[n:]
		dLen, n, err := varintFast(rest)
		if err != nil {
			return 0, fmt.Errorf("wire: packet %d path length: %w", i, err)
		}
		rest = rest[n:]
		digest, n, err := uvarintFast(rest)
		if err != nil {
			return 0, fmt.Errorf("wire: packet %d digest: %w", i, err)
		}
		rest = rest[n:]
		prevFlow += uint64(dFlow)
		prevID += uint64(dID)
		prevLen += dLen
		if prevLen < 1 || prevLen > MaxPathLen {
			return 0, fmt.Errorf("wire: packet %d path length %d outside [1, %d]", i, prevLen, MaxPathLen)
		}
		shard := uint64(0)
		if mod > 1 {
			shard = hash.ShardOf(prevFlow, mod)
		}
		dsts[shard] = append(dsts[shard], core.PacketDigest{
			Flow:    core.FlowKey(prevFlow),
			PktID:   prevID,
			PathLen: int(prevLen),
			Digest:  digest,
		})
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes after the last record", len(rest))
	}
	return int(count), nil
}
