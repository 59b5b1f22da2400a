// Package wire is the switch→collector transport encoding of the batch
// pipeline: a compact, versioned binary format for core.PacketDigest
// batches, so digest streams can leave the switch (or a first-hop
// aggregator) and be replayed into a remote sharded sink bit-identically.
//
// # Format (version 2)
//
// A marshaled batch is column-major — what repeats is said once, what
// does not is laid out at the width it needs:
//
//	magic    [2]byte  'P' 'D'
//	version  byte     0x02
//	count    uvarint  number of packets; a batch of zero ends here
//	flows    runs of  flowΔ zigzag varint  FlowKey minus the previous run's (the first: minus 0)
//	                  n     uvarint        packets in the run, >= 1
//	                  … until Σn = count
//	lengths  runs of  len   byte           PathLen, 1..64
//	                  n     uvarint        packets in the run, >= 1
//	                  … until Σn = count
//	id₀      uvarint  the first packet's PktID
//	idW      byte     width of the ID column, 1..8
//	ids      (count−1)×idW bytes  little-endian zigzag(PktID − previous PktID)
//	dgW      byte     width of the digest column, 1..8
//	digests  count×dgW bytes      little-endian Digest
//
// Each width is the smallest that holds its column's largest value (1 for
// an all-zero or empty column). The first ID rides outside its column so a
// large counter base does not widen every delta.
//
// # Measured cost (payload + 8-byte frame header, per packet)
//
//	10.10 B  one flow per 256-packet frame, 64-bit hash IDs, 16-bit digests —
//	         what every exporter in the tree sends; the information floor is
//	         8 + 2 = 10 B (version 1 spent 14.47)
//	 3.03 B  the same traffic with sequential IDs (idW = 1), 1024 to a frame
//	14.08 B  the worst case: the first shape changing flow AND path length
//	         on every packet, so each packet pays a run of its own in both
//	         run columns — 4 B where version 1's two deltas paid 2. No
//	         producer frames that way: Exporter.Send is handed per-flow
//	         batches, and a persisted shard chunk inherits its frame's runs.
//
// TestCompactness pins all three.
//
// # Strictness
//
// The encoding is canonical: every byte string the decoder accepts
// re-marshals to itself. Rejected with an error, never a panic: unknown magic or
// version, truncation anywhere, a non-minimal or overflowing varint, a
// width outside 1..8 or wider than its column needs, a run of zero
// packets, a run that repeats its predecessor's flow or length (it should
// have been one run), runs that overrun count, a path length outside the
// decoder's [1, 64] domain, and a digest column shorter or longer than
// count×dgW (trailing bytes included). Both widths are at least 1, so
// every packet owns at least one byte of the body: a count above the bytes
// present is refused from the header, before anything is sized, and a
// hostile header cannot force a large allocation. Validation (parse)
// finishes before the first packet is staged.
//
// The query-set and coding-layer caches a PacketDigest may carry are
// deliberately not transported: they are engine-specific memoizations of
// pure functions, and the receiving collector recomputes them.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/coding"
	"repro/internal/core"
)

// Version is the wire-format version byte. Version 1 (record-major
// varints) is gone: a batch carrying any other number is refused by it.
const Version = 2

const headerLen = 4 // magic (2) + version (1) + count (>= 1)

var magic = [2]byte{'P', 'D'}

// AppendMarshal appends the encoding of batch to dst (which may be nil or
// a reused buffer's dst[:0]) and returns the extended slice. It errors if
// any packet's PathLen is outside [1, coding.MaxPathLen], the Inference
// Module's path-length domain — such a packet could
// never have been produced by a sink and would be rejected by the
// receiving side; on error dst is not extended (nil is returned) and no
// bytes were written.
//
// The encoder is two-pass: pass one validates every PathLen, finds both
// column widths and measures the run columns, so the encoded size is known
// exactly; pass two makes a single capacity reservation and writes byte
// offsets directly — one grow per batch instead of amortized appends.
func AppendMarshal(dst []byte, batch []core.PacketDigest) ([]byte, error) {
	n := len(batch)
	var idBits, dgBits uint64 // OR of each column: its highest set bit sizes the column
	for i := range batch {
		p := &batch[i]
		if p.PathLen < 1 || p.PathLen > coding.MaxPathLen {
			return nil, fmt.Errorf("wire: packet %d has path length %d outside [1, %d]",
				i, p.PathLen, coding.MaxPathLen)
		}
		if i > 0 {
			idBits |= zigzag(int64(p.PktID - batch[i-1].PktID))
		}
		dgBits |= p.Digest
	}
	idW, dgW := byteWidth(idBits), byteWidth(dgBits)
	need := putUvarint(nil, 3, uint64(n))
	if n > 0 {
		need = putUvarint(nil, putRuns(nil, need, batch), batch[0].PktID)
		need += 1 + (n-1)*idW + 1 + n*dgW
	}

	w := len(dst)
	if cap(dst)-w < need {
		grown := make([]byte, w, w+need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:w+need]
	out[w], out[w+1], out[w+2] = magic[0], magic[1], Version
	w = putUvarint(out, w+3, uint64(n))
	if n == 0 {
		return out, nil
	}
	w = putUvarint(out, putRuns(out, w, batch), batch[0].PktID)
	out[w] = byte(idW)
	w++
	for i := 1; i < n; i++ {
		putLE(out, w, zigzag(int64(batch[i].PktID-batch[i-1].PktID)), idW)
		w += idW
	}
	out[w] = byte(dgW)
	w++
	for i := range batch {
		putLE(out, w, batch[i].Digest, dgW)
		w += dgW
	}
	return out, nil
}

// putRuns writes batch's flow-run and path-length-run columns at out[w:]
// and returns the offset after them. With out nil it writes nothing and
// only measures: AppendMarshal's sizing pass and writing pass are this one
// walk, run twice.
func putRuns(out []byte, w int, batch []core.PacketDigest) int {
	var prev uint64
	for i := 0; i < len(batch); {
		flow := batch[i].Flow
		j := i + 1
		for j < len(batch) && batch[j].Flow == flow {
			j++
		}
		w = putUvarint(out, w, zigzag(int64(uint64(flow)-prev)))
		w = putUvarint(out, w, uint64(j-i))
		prev, i = uint64(flow), j
	}
	for i := 0; i < len(batch); {
		k := batch[i].PathLen
		j := i + 1
		for j < len(batch) && batch[j].PathLen == k {
			j++
		}
		if out != nil {
			out[w] = byte(k)
		}
		w = putUvarint(out, w+1, uint64(j-i))
		i = j
	}
	return w
}

// putUvarint writes x at out[i:] — the caller reserved the room — and
// returns the next offset; with out nil it only measures. Varints are per
// run and per batch in this format, never per packet, so there is no fast
// path to keep.
func putUvarint(out []byte, i int, x uint64) int {
	if out != nil {
		binary.PutUvarint(out[i:], x)
	}
	return i + uvarintLen(x)
}

// putLE writes the low width bytes of v, little-endian, at out[w:]. Away
// from the end of out it stores all eight bytes at once: the spill lands
// on bytes AppendMarshal has yet to write (it fills out front to back).
func putLE(out []byte, w int, v uint64, width int) {
	if w+8 <= len(out) {
		binary.LittleEndian.PutUint64(out[w:], v)
		return
	}
	for b := 0; b < width; b++ {
		out[w+b] = byte(v >> (8 * b))
	}
}

// loadLE reads the width-byte little-endian value at data[off:], the
// mirror of putLE: one eight-byte load and a mask wherever eight bytes
// are there to load.
func loadLE(data []byte, off, width int) uint64 {
	if off+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[off:]) & (^uint64(0) >> (64 - 8*uint(width)))
	}
	var v uint64
	for b := 0; b < width; b++ {
		v |= uint64(data[off+b]) << (8 * b)
	}
	return v
}

// uvarintLen is the exact encoded size of x: one byte per started 7-bit
// group (x|1 makes zero cost one byte).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// byteWidth is the column width for values whose OR is x: one byte per
// started 8-bit group, and one for an all-zero (or empty) column.
func byteWidth(x uint64) int {
	return (bits.Len64(x|1) + 7) / 8
}

// zigzag maps a signed delta to binary.AppendVarint's unsigned form.
func zigzag(x int64) uint64 {
	return uint64(x)<<1 ^ uint64(x>>63)
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) uint64 {
	return u>>1 ^ -(u & 1)
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
