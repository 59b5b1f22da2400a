package segstore

import (
	"encoding/binary"
	"fmt"
)

// IndexEntry locates one block inside its segment.
type IndexEntry struct {
	// Offset is the block frame's byte offset from the segment start.
	Offset uint64
	Kind   uint8
	TS     uint64
	// Packets is the block's digest count (0 for non-digest blocks).
	Packets uint64
}

// Index is a sealed segment's block directory.
type Index struct {
	// MinTS/MaxTS bound every indexed block's timestamp; a time-windowed
	// scan skips the whole segment when the window misses [MinTS, MaxTS].
	MinTS uint64
	MaxTS uint64
	// Packets sums the segment's digest packets.
	Packets uint64
	Entries []IndexEntry
}

// maxIndexEntries bounds a decoded directory: segments rotate at a few
// MiB and a block is never smaller than a frame header, so even a
// degenerate segment holds far fewer blocks than this.
const maxIndexEntries = 1 << 20

// appendIndexBody appends idx's canonical body encoding to dst: counts
// and bounds, then per-entry deltas (offsets strictly increase and
// timestamps never decrease within a segment, so deltas stay small).
func appendIndexBody(dst []byte, idx Index) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(idx.Entries)))
	dst = binary.AppendUvarint(dst, idx.MinTS)
	dst = binary.AppendUvarint(dst, idx.MaxTS)
	dst = binary.AppendUvarint(dst, idx.Packets)
	prevOff, prevTS := uint64(0), uint64(0)
	for _, e := range idx.Entries {
		dst = binary.AppendUvarint(dst, e.Offset-prevOff)
		dst = append(dst, e.Kind)
		dst = binary.AppendUvarint(dst, e.TS-prevTS)
		dst = binary.AppendUvarint(dst, e.Packets)
		prevOff, prevTS = e.Offset, e.TS
	}
	return dst
}

// appendSeal builds, in buf's storage, what seals a segment whose data
// blocks end at footerOff: the index block, then the trailer pointing back
// at it.
func appendSeal(buf []byte, idx Index, footerOff int64) ([]byte, error) {
	buf = appendIndexBody(beginBlock(buf), idx)
	if err := finishBlock(buf, kindIndex, idx.MaxTS); err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(footerOff))
	return append(buf, trailerMagic...), nil
}

// DecodeIndex decodes an index body. The decoder is strict and canonical:
// trailing bytes, non-minimal varints, overflowing deltas, inverted
// timestamp bounds, and directories above the entry cap are all errors,
// so appendIndexBody(DecodeIndex(b)) == b for every accepted b.
func DecodeIndex(body []byte) (Index, error) {
	var entries []IndexEntry
	idx, err := walkIndex(body, func(e IndexEntry) bool {
		entries = append(entries, e)
		return true
	})
	if err != nil {
		return Index{}, err
	}
	idx.Entries = entries
	return idx, nil
}

// seekIndex returns the offset of the first block in an index body's
// directory whose timestamp is at or after since — where a window read
// that opens inside the segment starts. A directory with no such block is
// an error: the caller chose the segment because its bounds say there is
// one. It allocates nothing.
func seekIndex(body []byte, since uint64) (uint64, error) {
	off, found := uint64(0), false
	if _, err := walkIndex(body, func(e IndexEntry) bool {
		if e.TS >= since {
			off, found = e.Offset, true
		}
		return !found
	}); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("segstore: index lists no block at or after ts %d", since)
	}
	return off, nil
}

// walkIndex is the one decoder of an index body: it checks the header,
// then decodes and checks each entry and hands it to visit, in directory
// order. The returned Index carries the header fields and no Entries.
// visit returning false ends the walk there (a seek that found its block
// has no use for the rest) and leaves the tail unchecked; a walk that runs
// to the end also checks the totals and that no byte is left over.
func walkIndex(body []byte, visit func(IndexEntry) bool) (Index, error) {
	var idx Index
	take := func(what string) (uint64, error) {
		v, n, err := uvarint(body)
		if err != nil {
			return 0, fmt.Errorf("segstore: index %s: %w", what, err)
		}
		body = body[n:]
		return v, nil
	}
	count, err := take("entry count")
	if err != nil {
		return Index{}, err
	}
	if count > maxIndexEntries {
		return Index{}, fmt.Errorf("segstore: index claims %d entries, cap %d", count, maxIndexEntries)
	}
	if idx.MinTS, err = take("min ts"); err != nil {
		return Index{}, err
	}
	if idx.MaxTS, err = take("max ts"); err != nil {
		return Index{}, err
	}
	if idx.MinTS > idx.MaxTS {
		return Index{}, fmt.Errorf("segstore: index min ts %d above max ts %d", idx.MinTS, idx.MaxTS)
	}
	if idx.Packets, err = take("packet total"); err != nil {
		return Index{}, err
	}
	prevOff, prevTS, pkts := uint64(0), uint64(0), uint64(0)
	for i := uint64(0); i < count; i++ {
		var e IndexEntry
		dOff, err := take("offset delta")
		if err != nil {
			return Index{}, err
		}
		if e.Offset = prevOff + dOff; e.Offset < prevOff {
			return Index{}, fmt.Errorf("segstore: index entry %d offset overflows", i)
		}
		if i > 0 && dOff == 0 {
			return Index{}, fmt.Errorf("segstore: index entry %d repeats offset %d", i, e.Offset)
		}
		if len(body) < 1 {
			return Index{}, fmt.Errorf("segstore: index entry %d truncated before kind", i)
		}
		e.Kind = body[0]
		body = body[1:]
		dTS, err := take("ts delta")
		if err != nil {
			return Index{}, err
		}
		if e.TS = prevTS + dTS; e.TS < prevTS {
			return Index{}, fmt.Errorf("segstore: index entry %d timestamp overflows", i)
		}
		if e.Packets, err = take("packets"); err != nil {
			return Index{}, err
		}
		if e.TS < idx.MinTS || e.TS > idx.MaxTS {
			return Index{}, fmt.Errorf("segstore: index entry %d ts %d outside [%d, %d]",
				i, e.TS, idx.MinTS, idx.MaxTS)
		}
		if i == 0 && e.TS != idx.MinTS {
			return Index{}, fmt.Errorf("segstore: index min ts %d, first entry at %d", idx.MinTS, e.TS)
		}
		if !visit(e) {
			return idx, nil
		}
		prevOff, prevTS, pkts = e.Offset, e.TS, pkts+e.Packets
	}
	if len(body) != 0 {
		return Index{}, fmt.Errorf("segstore: %d trailing bytes after index", len(body))
	}
	if count > 0 {
		if pkts != idx.Packets {
			return Index{}, fmt.Errorf("segstore: index packet total %d, entries sum to %d", idx.Packets, pkts)
		}
		if prevTS != idx.MaxTS {
			return Index{}, fmt.Errorf("segstore: index max ts %d, last entry at %d", idx.MaxTS, prevTS)
		}
	} else if idx.MinTS != 0 || idx.MaxTS != 0 || idx.Packets != 0 {
		return Index{}, fmt.Errorf("segstore: empty index with nonzero bounds")
	}
	return idx, nil
}
