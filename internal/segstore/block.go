// Package segstore is the durable tier of the collector: an append-only
// segment log that persists the ingested digest stream and per-shard
// checkpoint counters, so a collector that crashes — SIGKILL, not a graceful drain — restarts into
// exactly the state an uncrashed collector would hold, modulo an
// explicitly-reported unflushed tail.
//
// # Why a digest WAL and not state snapshots
//
// The log holds digests because both of its readers replay them.
// Recovery replays the log through an identically-configured sink and
// lands on the same bits: a Recording draws no randomness, so it is a
// pure function of its digest stream (the pipeline package's determinism
// argument), and logging the stream in global arrival order IS logging
// the state. A time-windowed query replays only its window's digests,
// which no image of a flow's whole history can answer. A flow does have
// an image (core.Recording.AppendFlowState, the hand-off format), and
// checkpoint rounds that log those images, so that a restart replays only
// the digests after the newest round, are ROADMAP item 15. Replay holds
// because nothing else removes a flow from a durable sink: the hand-off
// that moves flows out (collector.ExportFlows) refuses one, as replay
// would resurrect what it moved.
//
// # Segment layout
//
//	magic  [4]byte  'P' 'S' 'G' '1'
//	block*          wire frames (length u32 LE | crc32c u32 LE | payload)
//
// and, once sealed (rotation or clean close):
//
//	index block     kind 0xF0, the segment's block directory
//	trailer         footerOff uint64 LE | 'P' 'I' 'D' 'X'
//
// Every block payload is `kind uint8 | ts uint64 LE | body`. Reusing
// internal/wire's frame discipline means segments inherit the stream
// format's guarantees: strict bounded decode, CRC-32C over every payload,
// and wire.ErrShortFrame distinguishing a torn tail (benign: the write
// was cut by a crash) from a checksum mismatch (corruption: the bytes
// changed after they were written).
//
// The index footer lists every block's (offset, kind, ts, packets) so a
// time-windowed query seeks straight past segments outside its window.
// Its encoding is canonical — minimal uvarints, no trailing bytes — so
// decode∘encode is the identity, a property the fuzzers pin.
//
// # Moving each byte once
//
// A block is built where it is written from: the store reserves the frame
// header and `kind | ts` in its one block buffer, the body is encoded
// straight behind them (a digest batch is marshaled there, not into a
// buffer of its own), and length and CRC-32C are backfilled over the
// payload where it sits. A steady stream of appends allocates nothing.
//
// Reads are the mirror image. Store.Scan never holds a segment in memory:
// it opens the segments whose bounds overlap the window, enters the one
// the window opens inside at the offset that segment's index footer gives
// for the first block at or after `since` (block timestamps never decrease
// through a log, so there is at most one such segment; the active
// segment's directory is already in memory), and streams frames through
// one reused buffer until the first block past `until`. The contract that
// follows: a Block handed to Scan's callback aliases that buffer and is
// valid only during the callback — copy what must outlive it. A window
// read therefore costs the window's blocks plus one index footer, whatever
// SegmentBytes is and however much log lies outside the window; recovery's
// replay is the same walk over the window [0, ∞).
package segstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Block kinds. The high range (0xF0+) is reserved for segment metadata
// that replay skips. Kind 3 is unassigned: Open refuses it like any kind
// not listed here.
const (
	// KindDigests carries one wire-marshaled core.PacketDigest batch — the
	// WAL record recovery replays.
	KindDigests uint8 = 1
	// KindCheckpoint carries one shard's checkpoint counters: proof of how
	// many packets the sink had recorded when the round closed. Recovery
	// cross-checks complete rounds against the digest stream.
	KindCheckpoint uint8 = 2
	// KindRetain records that retention deleted sealed segments: the
	// cumulative deleted segment/packet totals and the deleted range's max
	// timestamp, so conservation checks and the query horizon survive the
	// deletion.
	KindRetain uint8 = 4
	// kindIndex is the sealed segment's index footer.
	kindIndex uint8 = 0xF0
)

// blockHeadLen is the payload prefix before the body: kind + timestamp.
const blockHeadLen = 9

// Block is one decoded segment block.
type Block struct {
	Kind uint8
	// TS is the store clock's value when the block was appended
	// (monotone non-decreasing within a store's lifetime).
	TS uint64
	// Body is the kind-specific encoding; it aliases the decode buffer.
	Body []byte
}

// blockPrefixLen is what precedes a block's body in its frame: the frame
// header, then kind and timestamp.
const blockPrefixLen = wire.FrameHeaderLen + blockHeadLen

// beginBlock starts a block in buf's storage: it returns buf[:0] extended
// by a zeroed prefix for the caller to append the body behind, so a body
// is encoded once, where it will be written from. finishBlock completes it.
func beginBlock(buf []byte) []byte {
	var prefix [blockPrefixLen]byte
	return append(buf[:0], prefix[:]...)
}

// finishBlock fills in the prefix of the block begun in blk: kind and
// timestamp, then the frame's length and checksum over the payload where
// it sits. The bytes are exactly wire.AppendFrame(kind | ts | body).
func finishBlock(blk []byte, kind uint8, ts uint64) error {
	blk[wire.FrameHeaderLen] = kind
	binary.LittleEndian.PutUint64(blk[wire.FrameHeaderLen+1:], ts)
	return wire.SealFrame(blk)
}

// blockOf splits a verified frame payload into its block. Body aliases
// payload.
func blockOf(payload []byte) (Block, error) {
	if len(payload) < blockHeadLen {
		return Block{}, fmt.Errorf("segstore: block payload %d bytes below header %d", len(payload), blockHeadLen)
	}
	return Block{
		Kind: payload[0],
		TS:   binary.LittleEndian.Uint64(payload[1:]),
		Body: payload[blockHeadLen:],
	}, nil
}

// decodeBlock decodes the first block of data, returning it and the bytes
// after its frame. wire.ErrShortFrame means data ends before the block
// does (a torn tail); any other error is corruption.
func decodeBlock(data []byte) (Block, []byte, error) {
	payload, rest, err := wire.DecodeFrame(data, wire.DefaultMaxFramePayload)
	if err != nil {
		return Block{}, data, err
	}
	blk, err := blockOf(payload)
	if err != nil {
		return Block{}, data, err
	}
	return blk, rest, nil
}

// uvarint is the strict, canonical decoder every segstore body shares:
// it rejects truncation, overflow, and non-minimal encodings, so every
// valid body has exactly one byte representation and re-encoding a
// decoded value reproduces the input (the fuzzers' identity property).
func uvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n == 0 {
		return 0, 0, fmt.Errorf("segstore: truncated uvarint")
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("segstore: uvarint overflows 64 bits")
	}
	if n > 1 && data[n-1] == 0 {
		return 0, 0, fmt.Errorf("segstore: non-minimal uvarint")
	}
	return v, n, nil
}

// Checkpoint is one shard's durable checkpoint record.
type Checkpoint struct {
	// Round numbers the checkpoint barrier this record belongs to; one
	// round emits Shards records sharing it.
	Round uint64
	// Shard / Shards locate the record within its round.
	Shard  int
	Shards int
	// Packets is the shard's accepted-packet counter at the barrier —
	// after a barrier that equals everything the shard has recorded.
	Packets uint64
	// Flows is the shard's live flow count at the barrier.
	Flows int
}

// appendCheckpointBody appends cp's body encoding to dst.
func appendCheckpointBody(dst []byte, cp Checkpoint) []byte {
	dst = binary.AppendUvarint(dst, cp.Round)
	dst = binary.AppendUvarint(dst, uint64(cp.Shard))
	dst = binary.AppendUvarint(dst, uint64(cp.Shards))
	dst = binary.AppendUvarint(dst, cp.Packets)
	dst = binary.AppendUvarint(dst, uint64(cp.Flows))
	return dst
}

// DecodeCheckpoint decodes a KindCheckpoint body.
func DecodeCheckpoint(body []byte) (Checkpoint, error) {
	var cp Checkpoint
	fields := []*uint64{&cp.Round, nil, nil, &cp.Packets, nil}
	ints := []*int{nil, &cp.Shard, &cp.Shards, nil, &cp.Flows}
	for i := range fields {
		v, n, err := uvarint(body)
		if err != nil {
			return Checkpoint{}, fmt.Errorf("segstore: checkpoint field %d: %w", i, err)
		}
		if fields[i] != nil {
			*fields[i] = v
		} else {
			if v > 1<<31 {
				return Checkpoint{}, fmt.Errorf("segstore: checkpoint field %d value %d above int bound", i, v)
			}
			*ints[i] = int(v)
		}
		body = body[n:]
	}
	if len(body) != 0 {
		return Checkpoint{}, fmt.Errorf("segstore: %d trailing bytes after checkpoint", len(body))
	}
	if cp.Shards < 1 || cp.Shard >= cp.Shards {
		return Checkpoint{}, fmt.Errorf("segstore: checkpoint shard %d/%d out of range", cp.Shard, cp.Shards)
	}
	return cp, nil
}

// Retain is the cumulative retention-deletion record.
type Retain struct {
	// Segments / Packets count everything retention has deleted over the
	// store's lifetime (cumulative, so the latest record is the total).
	Segments uint64
	Packets  uint64
	// HorizonTS is the max block timestamp among deleted segments: queries
	// at or before it can only be answered partially.
	HorizonTS uint64
}

// appendRetainBody appends r's body encoding to dst.
func appendRetainBody(dst []byte, r Retain) []byte {
	dst = binary.AppendUvarint(dst, r.Segments)
	dst = binary.AppendUvarint(dst, r.Packets)
	dst = binary.AppendUvarint(dst, r.HorizonTS)
	return dst
}

// DecodeRetain decodes a KindRetain body.
func DecodeRetain(body []byte) (Retain, error) {
	var r Retain
	for i, f := range []*uint64{&r.Segments, &r.Packets, &r.HorizonTS} {
		v, n, err := uvarint(body)
		if err != nil {
			return Retain{}, fmt.Errorf("segstore: retain field %d: %w", i, err)
		}
		*f = v
		body = body[n:]
	}
	if len(body) != 0 {
		return Retain{}, fmt.Errorf("segstore: %d trailing bytes after retain record", len(body))
	}
	return r, nil
}

// DecodeDigests decodes a KindDigests body — the same wire batch format
// exporters stream — into dst (reused when large enough), keeping only
// the packets of the flows in only (nil: every packet). A body's first
// bytes are its flow runs, so a block holding none of the flows asked for
// is validated and stepped over without a digest decoded.
func DecodeDigests(dst []core.PacketDigest, body []byte, only map[core.FlowKey]bool) ([]core.PacketDigest, error) {
	return wire.AppendUnmarshalFlows(dst[:0], body, only)
}
