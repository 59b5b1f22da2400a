// Package wire is the switch→collector transport encoding of the batch
// pipeline: a compact, versioned binary format for core.PacketDigest
// batches, so digest streams can leave the switch (or a first-hop
// aggregator) and be replayed into a remote sharded sink bit-identically.
//
// # Format (version 1)
//
// A marshaled batch is
//
//	magic   [2]byte  'P' 'D'
//	version byte     0x01
//	count   uvarint  number of packets
//	packets count records, each
//	    flowΔ   zigzag varint  FlowKey minus the previous record's FlowKey
//	    pktIDΔ  zigzag varint  PktID minus the previous record's PktID
//	    lenΔ    zigzag varint  PathLen minus the previous record's PathLen
//	    digest  uvarint        the digest value itself
//
// Delta coding exploits the shape of real sink streams: consecutive
// packets of one flow differ by small flow/ID/length deltas, and PINT
// digests occupy only the plan's global bit budget (typically 8–32 of the
// 64 bits), so every field varint-compresses well. The first record's
// deltas are taken against zero.
//
// Unmarshal is strict: unknown magic/version, truncated input, non-minimal
// or overflowing varints are rejected with an error (never a panic), a
// batch whose count cannot fit in the remaining bytes is rejected before
// any allocation (so hostile headers cannot force large allocations), and
// trailing bytes after the last record are an error. PathLen is validated
// against the decoder's [1, 64] domain. The query-set and coding-layer
// caches a PacketDigest may carry are deliberately not transported: they
// are engine-specific memoizations of pure functions, and the receiving
// collector recomputes them.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// Version is the current wire-format version byte.
const Version = 1

// MaxPathLen mirrors the Inference Module's path-length domain: the
// decoder peels hop sets held in one 64-bit mask.
const MaxPathLen = 64

const headerLen = 4 // magic (2) + version (1) + count (>= 1)

// minRecordLen is the smallest possible marshaled packet record: four
// varints of one byte each. Unmarshal uses it to bound the claimed count
// against the bytes actually present.
const minRecordLen = 4

var magic = [2]byte{'P', 'D'}

// Marshal encodes a batch. It errors if any packet's PathLen is outside
// [1, MaxPathLen] — such a packet could never have been produced by a
// sink and would be rejected by the receiving side.
func Marshal(batch []core.PacketDigest) ([]byte, error) {
	return AppendMarshal(nil, batch)
}

// AppendMarshal appends the encoding of batch to dst (which may be nil or
// a reused buffer's dst[:0]) and returns the extended slice. On error dst
// is not extended (nil is returned) and no bytes were written.
//
// The encoder is a two-pass bulk codec: pass one validates every PathLen
// and sums the exact varint lengths of all four delta columns, pass two
// makes a single capacity reservation and writes byte offsets directly.
// One grow per batch instead of amortized appends, and the common 1- and
// 2-byte varints take a branch-free-size fast path in putUvarint.
func AppendMarshal(dst []byte, batch []core.PacketDigest) ([]byte, error) {
	need := 3 + uvarintLen(uint64(len(batch)))
	var prevFlow, prevID uint64
	var prevLen int
	for i := range batch {
		p := &batch[i]
		if p.PathLen < 1 || p.PathLen > MaxPathLen {
			return nil, fmt.Errorf("wire: packet %d has path length %d outside [1, %d]",
				i, p.PathLen, MaxPathLen)
		}
		need += uvarintLen(zigzag(int64(uint64(p.Flow)-prevFlow))) +
			uvarintLen(zigzag(int64(p.PktID-prevID))) +
			uvarintLen(zigzag(int64(p.PathLen-prevLen))) +
			uvarintLen(p.Digest)
		prevFlow, prevID, prevLen = uint64(p.Flow), p.PktID, p.PathLen
	}
	w := len(dst)
	if cap(dst)-w < need {
		grown := make([]byte, w, w+need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:w+need]
	out[w], out[w+1], out[w+2] = magic[0], magic[1], Version
	w = putUvarint(out, w+3, uint64(len(batch)))
	prevFlow, prevID, prevLen = 0, 0, 0
	for i := range batch {
		p := &batch[i]
		w = putUvarint(out, w, zigzag(int64(uint64(p.Flow)-prevFlow)))
		w = putUvarint(out, w, zigzag(int64(p.PktID-prevID)))
		w = putUvarint(out, w, zigzag(int64(p.PathLen-prevLen)))
		w = putUvarint(out, w, p.Digest)
		prevFlow, prevID, prevLen = uint64(p.Flow), p.PktID, p.PathLen
	}
	return out, nil
}

// uvarintLen is the exact encoded size of x: one byte per started 7-bit
// group (x|1 makes zero cost one byte).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// zigzag maps a signed delta to binary.AppendVarint's unsigned form.
func zigzag(x int64) uint64 {
	return uint64(x)<<1 ^ uint64(x>>63)
}

// putUvarint writes x at out[i] and returns the next write offset. The
// caller has already reserved uvarintLen(x) bytes, so the 1- and 2-byte
// encodings that dominate delta-coded sink streams write without a loop.
func putUvarint(out []byte, i int, x uint64) int {
	if x < 0x80 {
		out[i] = byte(x)
		return i + 1
	}
	if x < 0x4000 {
		out[i] = byte(x) | 0x80
		out[i+1] = byte(x >> 7)
		return i + 2
	}
	for x >= 0x80 {
		out[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	out[i] = byte(x)
	return i + 1
}

// Unmarshal decodes a marshaled batch. On error the returned slice is nil.
func Unmarshal(data []byte) ([]core.PacketDigest, error) {
	return AppendUnmarshal(nil, data)
}

// Roundtrip encodes batch and decodes it straight back — the
// switch→collector transfer every recording hot path exercises per block.
// dst and buf may be nil or recycled buffers (they are truncated before
// use); the decoded batch and the grown scratch buffer are returned for
// reuse so steady-state round trips allocate nothing.
func Roundtrip(dst []core.PacketDigest, buf []byte, batch []core.PacketDigest) ([]core.PacketDigest, []byte, error) {
	buf, err := AppendMarshal(buf[:0], batch)
	if err != nil {
		return dst, buf, err
	}
	dst, err = AppendUnmarshal(dst[:0], buf)
	return dst, buf, err
}

// AppendUnmarshal appends the decoded packets to dst (pass a reused
// buffer's dst[:0] to avoid allocation on the replay hot path) and returns
// the extended slice. On error dst is returned unextended.
func AppendUnmarshal(dst []core.PacketDigest, data []byte) ([]core.PacketDigest, error) {
	count, _, err := batchHeader(data)
	if err != nil {
		return dst, err
	}
	one := [1][]core.PacketDigest{dst}
	if free := cap(dst) - len(dst); uint64(free) < count {
		one[0] = make([]core.PacketDigest, len(dst), len(dst)+int(count))
		copy(one[0], dst)
	}
	if _, err := AppendUnmarshalSharded(one[:], data); err != nil {
		return dst, err
	}
	return one[0], nil
}

// batchHeader checks a marshaled batch's magic and version and returns its
// record count and the bytes the records occupy. The claimed count is
// bounded by the bytes present, so a hostile header cannot force a huge
// allocation on whoever sizes a buffer from it.
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
	if count > uint64(len(rest)/minRecordLen) {
		return 0, nil, fmt.Errorf("wire: count %d exceeds the %d remaining bytes", count, len(rest))
	}
	return count, rest, nil
}

// uvarint reads one canonical unsigned varint. Unlike binary.Uvarint it
// rejects truncated input, 64-bit overflow, and non-minimal encodings
// (e.g. 0x80 0x00 for zero), so every valid byte stream has exactly one
// decoding — the property the fuzz harness's re-marshal check relies on.
func uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("truncated varint")
	case n < 0:
		return 0, 0, fmt.Errorf("varint overflows 64 bits")
	case n > 1 && b[n-1] == 0:
		return 0, 0, fmt.Errorf("non-minimal varint")
	}
	return v, n, nil
}

// varint reads one canonical zigzag varint.
func varint(b []byte) (int64, int, error) {
	u, n, err := uvarint(b)
	if err != nil {
		return 0, 0, err
	}
	return int64(u>>1) ^ -int64(u&1), n, nil
}

// uvarintFast is uvarint with the decode-side fast path: 1- and 2-byte
// encodings — the bulk of a delta-coded stream — decode inline without
// touching binary.Uvarint's loop. Any longer, truncated, or non-minimal
// input falls through to the strict generic reader, so the error strings
// and acceptance set are exactly uvarint's.
func uvarintFast(b []byte) (uint64, int, error) {
	if len(b) >= 1 {
		if b0 := b[0]; b0 < 0x80 {
			return uint64(b0), 1, nil
		} else if len(b) >= 2 {
			// Second byte must terminate (< 0x80) and be nonzero (a zero
			// continuation would be a non-minimal encoding).
			if b1 := b[1]; b1-1 < 0x7f {
				return uint64(b0&0x7f) | uint64(b1)<<7, 2, nil
			}
		}
	}
	return uvarint(b)
}

// varintFast reads one canonical zigzag varint via uvarintFast.
func varintFast(b []byte) (int64, int, error) {
	u, n, err := uvarintFast(b)
	if err != nil {
		return 0, 0, err
	}
	return int64(u>>1) ^ -int64(u&1), n, nil
}
