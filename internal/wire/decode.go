package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/hash"
)

// This file is the decode side of the batch format: parse validates a
// marshaled batch against every rule of the package comment and maps its
// columns, and appendRuns — the package's one decode loop — materializes
// packets from a validated batch, one flow run at a time. Every entry
// point (Count, AppendUnmarshalFlows, AppendUnmarshalSharded) is parse followed by as much of the loop as it
// needs, so they accept the same bytes and fail with the same text.

// columns maps a validated batch: where each column starts in its bytes.
type columns struct {
	count    int
	flowRuns int    // offset of the first flow run
	lenRuns  int    // offset of the first path-length run
	id0      uint64 // the first packet's PktID
	idW, ids int    // ID-delta column: width, offset
	dgW, dgs int    // digest column: width, offset
}

// batchHeader checks a marshaled batch's magic and version and returns its
// packet count and the bytes after the count. Every packet owns at least
// one byte of those (its digest is at least one byte wide), so a count
// above them is refused here, before anyone sizes a buffer from it.
func batchHeader(data []byte) (count uint64, rest []byte, err error) {
	if len(data) < headerLen {
		return 0, nil, fmt.Errorf("wire: %d-byte input shorter than the %d-byte header", len(data), headerLen)
	}
	if data[0] != magic[0] || data[1] != magic[1] {
		return 0, nil, fmt.Errorf("wire: bad magic %#02x%02x", data[0], data[1])
	}
	if data[2] != Version {
		return 0, nil, fmt.Errorf("wire: unsupported version %d (have %d)", data[2], Version)
	}
	rest = data[3:]
	count, n, err := uvarint(rest)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: batch count: %w", err)
	}
	rest = rest[n:]
	if count > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("wire: count %d exceeds the %d remaining bytes", count, len(rest))
	}
	return count, rest, nil
}

// parse validates a marshaled batch in full — after it returns nil the
// decode loop cannot fail — and allocates nothing.
func parse(data []byte) (columns, error) {
	count, rest, err := batchHeader(data)
	if err != nil {
		return columns{}, err
	}
	if count == 0 {
		if len(rest) != 0 {
			return columns{}, fmt.Errorf("wire: %d trailing bytes after an empty batch", len(rest))
		}
		return columns{}, nil
	}
	c := columns{count: int(count)}
	off := len(data) - len(rest)

	c.flowRuns = off
	for run, left := 0, count; left > 0; run++ {
		delta, n, err := uvarint(data[off:])
		if err != nil {
			return columns{}, fmt.Errorf("wire: flow run %d: %w", run, err)
		}
		if run > 0 && delta == 0 {
			return columns{}, fmt.Errorf("wire: flow run %d repeats its predecessor's flow", run)
		}
		if off, left, err = runCount(data, off+n, left); err != nil {
			return columns{}, fmt.Errorf("wire: flow run %d: %w", run, err)
		}
	}

	c.lenRuns = off
	for run, left, prev := 0, count, byte(0); left > 0; run++ {
		if off == len(data) {
			return columns{}, fmt.Errorf("wire: path-length run %d: truncated", run)
		}
		k := data[off]
		if k < 1 || k > coding.MaxPathLen {
			return columns{}, fmt.Errorf("wire: path-length run %d: length %d outside [1, %d]", run, k, coding.MaxPathLen)
		}
		if k == prev {
			return columns{}, fmt.Errorf("wire: path-length run %d repeats its predecessor's length", run)
		}
		prev = k
		if off, left, err = runCount(data, off+1, left); err != nil {
			return columns{}, fmt.Errorf("wire: path-length run %d: %w", run, err)
		}
	}

	id0, n, err := uvarint(data[off:])
	if err != nil {
		return columns{}, fmt.Errorf("wire: first packet id: %w", err)
	}
	c.id0 = id0
	if c.idW, c.ids, off, err = column(data, off+n, c.count-1); err != nil {
		return columns{}, fmt.Errorf("wire: id column: %w", err)
	}
	if c.dgW, c.dgs, off, err = column(data, off, c.count); err != nil {
		return columns{}, fmt.Errorf("wire: digest column: %w", err)
	}
	if off != len(data) {
		return columns{}, fmt.Errorf("wire: %d trailing bytes after the digest column", len(data)-off)
	}
	return c, nil
}

// runCount reads the packet count that closes a run at data[off:] and
// takes it from left, the packets the column has yet to cover.
func runCount(data []byte, off int, left uint64) (int, uint64, error) {
	n, size, err := uvarint(data[off:])
	if err != nil {
		return 0, 0, fmt.Errorf("count: %w", err)
	}
	if n == 0 || n > left {
		return 0, 0, fmt.Errorf("holds %d packets, %d remain", n, left)
	}
	return off + size, left - n, nil
}

// column checks the fixed-width column of n values at data[off:] — its
// width byte, then n×width bytes — and returns the width, the offset of
// the first value and the offset after the last. The width must be the
// smallest that holds the column: some value's top byte is set, or it is 1.
func column(data []byte, off, n int) (width, start, end int, err error) {
	if off == len(data) {
		return 0, 0, 0, fmt.Errorf("truncated before its width")
	}
	width, start = int(data[off]), off+1
	if width < 1 || width > 8 {
		return 0, 0, 0, fmt.Errorf("width %d outside [1, 8]", width)
	}
	// n is at most len(data) and width at most 8: the product fits uint64
	// on every platform, and compares before it is trusted as an int.
	if size := uint64(n) * uint64(width); size > uint64(len(data)-start) {
		return 0, 0, 0, fmt.Errorf("%d values of %d bytes exceed the %d remaining bytes", n, width, len(data)-start)
	}
	end = start + n*width
	var top byte
	for i := start + width - 1; i < end; i += width {
		top |= data[i]
	}
	if width > 1 && top == 0 {
		return 0, 0, 0, fmt.Errorf("width %d is not minimal", width)
	}
	return width, start, end, nil
}

// Count validates a marshaled batch in full and returns its packet count
// without materializing a packet or allocating: what recovery needs from
// a digest block it is not replaying yet.
func Count(data []byte) (int, error) {
	c, err := parse(data)
	return c.count, err
}

// AppendUnmarshalFlows appends the decoded packets whose flow is in only
// (nil: every packet) to dst (pass a reused buffer's dst[:0] to avoid
// allocation on the replay hot path) and returns the extended slice. On
// error dst is returned unextended. The flow runs are the first bytes
// of a batch, so a run that is not asked for is stepped over without
// reading its IDs or digests, and a batch holding no asked-for flow is
// validated and left at that — the cost a time-window query pays for the
// traffic it did not ask about.
func AppendUnmarshalFlows(dst []core.PacketDigest, data []byte, only map[core.FlowKey]bool) ([]core.PacketDigest, error) {
	c, err := parse(data)
	if err != nil {
		return dst, err
	}
	one := [1][]core.PacketDigest{dst}
	if only == nil {
		one[0] = slices.Grow(dst, c.count)
	}
	appendRuns(one[:], data, &c, only)
	return one[0], nil
}

// AppendUnmarshalSharded decodes a marshaled batch, appending each packet
// to dsts[hash.ShardOf(flow, len(dsts))] — the same routing function
// pipeline.Sink uses — and returns the packet count. dsts must be
// non-empty. This is the fused decode-and-shard pass of the collector's
// ingest path: the flow→shard hash is taken once per flow run, and the
// run lands in its shard's staging buffer as one bulk append, with no
// intermediate slice and no second pass. On error nothing was staged.
func AppendUnmarshalSharded(dsts [][]core.PacketDigest, data []byte) (int, error) {
	if len(dsts) == 0 {
		return 0, fmt.Errorf("wire: sharded unmarshal needs at least one destination")
	}
	c, err := parse(data)
	if err != nil {
		return 0, err
	}
	appendRuns(dsts, data, &c, nil)
	return c.count, nil
}

// appendRuns is the package's one decode loop. It walks the flow runs of
// a batch parse has validated and, for each run whose flow is in only
// (nil: every run), appends the run's packets to dsts[ShardOf(flow)] —
// dsts[0] when there is one destination. Within a flow run the packets
// are filled one path-length segment at a time, so the inner loop reads
// two fixed-width columns and nothing else. PktIDs are a running sum over
// the delta column; it is carried lazily (id is packet idAt's), so runs
// that are stepped over cost no column reads unless a later run is kept.
func appendRuns(dsts [][]core.PacketDigest, data []byte, c *columns, only map[core.FlowKey]bool) {
	mod := uint64(len(dsts))
	flowOff, lenOff := c.flowRuns, c.lenRuns
	var flow uint64
	var pathLen, lenLeft int
	id, idAt := c.id0, 0
	for p := 0; p < c.count; {
		// parse vouched for every varint below: none is truncated or overlong.
		delta, n := binary.Uvarint(data[flowOff:])
		run, m := binary.Uvarint(data[flowOff+n:])
		flowOff += n + m
		flow += unzigzag(delta)
		keep := only == nil || only[core.FlowKey(flow)]
		shard := uint64(0)
		if keep && mod > 1 {
			shard = hash.ShardOf(flow, mod)
		}
		for left := int(run); left > 0; {
			if lenLeft == 0 {
				cnt, m := binary.Uvarint(data[lenOff+1:])
				pathLen, lenLeft = int(data[lenOff]), int(cnt)
				lenOff += 1 + m
			}
			seg := min(left, lenLeft)
			if keep {
				dst := dsts[shard]
				at := len(dst)
				dst = slices.Grow(dst, seg)[:at+seg]
				dg := c.dgs + p*c.dgW
				for q := p; q < p+seg; q++ {
					for ; idAt < q; idAt++ {
						id += unzigzag(loadLE(data, c.ids+idAt*c.idW, c.idW))
					}
					dst[at] = core.PacketDigest{
						Flow:    core.FlowKey(flow),
						PktID:   id,
						PathLen: pathLen,
						Digest:  loadLE(data, dg, c.dgW),
					}
					at++
					dg += c.dgW
				}
				dsts[shard] = dst
			}
			p, left, lenLeft = p+seg, left-seg, lenLeft-seg
		}
	}
}
