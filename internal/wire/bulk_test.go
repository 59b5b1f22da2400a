package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/coding"
	"repro/internal/core"
)

// This file pins the bulk codec (two-pass sized marshal, parse-then-fill
// unmarshal, single-buffer frame marshal) to byte-at-a-time reference
// implementations of the same format — the simplest possible encoders,
// written from the layout table in the package comment and sharing no
// code with the codec but the strict varint reader, kept here so the hot
// path can never drift from the format definition without a test or the
// fuzzer noticing.

// referenceWidth is the smallest byte width that holds every value of a
// column, found by comparison instead of the codec's OR-and-count-bits.
func referenceWidth(col []uint64) int {
	w := 1
	for _, v := range col {
		for w < 8 && v >= 1<<(8*w) {
			w++
		}
	}
	return w
}

// referenceColumn appends a width byte and the column, one byte at a time.
func referenceColumn(dst []byte, col []uint64) []byte {
	w := referenceWidth(col)
	dst = append(dst, byte(w))
	for _, v := range col {
		for b := 0; b < w; b++ {
			dst = append(dst, byte(v>>(8*b)))
		}
	}
	return dst
}

// referenceMarshal is the format written down as appends: header, the two
// run columns, the first ID, the two fixed-width columns.
func referenceMarshal(dst []byte, batch []core.PacketDigest) ([]byte, error) {
	for i, p := range batch {
		if p.PathLen < 1 || p.PathLen > coding.MaxPathLen {
			return nil, fmt.Errorf("wire: packet %d has path length %d outside [1, %d]",
				i, p.PathLen, coding.MaxPathLen)
		}
	}
	dst = append(dst, 'P', 'D', 2)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	if len(batch) == 0 {
		return dst, nil
	}
	var prevFlow core.FlowKey
	for i := 0; i < len(batch); {
		n := 1
		for i+n < len(batch) && batch[i+n].Flow == batch[i].Flow {
			n++
		}
		dst = binary.AppendVarint(dst, int64(batch[i].Flow-prevFlow))
		dst = binary.AppendUvarint(dst, uint64(n))
		prevFlow = batch[i].Flow
		i += n
	}
	for i := 0; i < len(batch); {
		n := 1
		for i+n < len(batch) && batch[i+n].PathLen == batch[i].PathLen {
			n++
		}
		dst = append(dst, byte(batch[i].PathLen))
		dst = binary.AppendUvarint(dst, uint64(n))
		i += n
	}
	dst = binary.AppendUvarint(dst, batch[0].PktID)
	var ids, digests []uint64
	for i, p := range batch {
		if i > 0 {
			d := int64(p.PktID - batch[i-1].PktID)
			ids = append(ids, uint64(d<<1)^uint64(d>>63))
		}
		digests = append(digests, p.Digest)
	}
	return referenceColumn(referenceColumn(dst, ids), digests), nil
}

// referenceReader consumes a batch front to back, one field at a time.
type referenceReader struct{ rest []byte }

func (r *referenceReader) uvarint() (uint64, error) {
	v, n, err := uvarint(r.rest)
	r.rest = r.rest[n:]
	return v, err
}

// runs expands one run column into a value per packet. next reads a run's
// value (and says whether it may follow prev); the count that closes the
// run is read here.
func (r *referenceReader) runs(what string, count uint64, next func(run int) (uint64, error)) ([]uint64, error) {
	var out []uint64
	for run := 0; uint64(len(out)) < count; run++ {
		v, err := next(run)
		if err != nil {
			return nil, fmt.Errorf("wire: %s run %d%w", what, run, err)
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("wire: %s run %d: count: %w", what, run, err)
		}
		if left := count - uint64(len(out)); n == 0 || n > left {
			return nil, fmt.Errorf("wire: %s run %d: holds %d packets, %d remain", what, run, n, left)
		}
		for ; n > 0; n-- {
			out = append(out, v)
		}
	}
	return out, nil
}

// column reads a width byte and n values of that width.
func (r *referenceReader) column(what string, n uint64) ([]uint64, error) {
	if len(r.rest) == 0 {
		return nil, fmt.Errorf("wire: %s column: truncated before its width", what)
	}
	w := int(r.rest[0])
	r.rest = r.rest[1:]
	if w < 1 || w > 8 {
		return nil, fmt.Errorf("wire: %s column: width %d outside [1, 8]", what, w)
	}
	if n*uint64(w) > uint64(len(r.rest)) {
		return nil, fmt.Errorf("wire: %s column: %d values of %d bytes exceed the %d remaining bytes", what, n, w, len(r.rest))
	}
	col := make([]uint64, n)
	for i := range col {
		for b := 0; b < w; b++ {
			col[i] |= uint64(r.rest[b]) << (8 * b)
		}
		r.rest = r.rest[w:]
	}
	if referenceWidth(col) != w {
		return nil, fmt.Errorf("wire: %s column: width %d is not minimal", what, w)
	}
	return col, nil
}

// referenceUnmarshal is the decoder as the layout table reads: every
// section in order, every rule checked where the table states it, every
// column expanded to one value per packet before a packet is built.
func referenceUnmarshal(data []byte) ([]core.PacketDigest, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: %d-byte input shorter than the 4-byte header", len(data))
	}
	if data[0] != 'P' || data[1] != 'D' {
		return nil, fmt.Errorf("wire: bad magic %#02x%02x", data[0], data[1])
	}
	if data[2] != 2 {
		return nil, fmt.Errorf("wire: unsupported version %d (have 2)", data[2])
	}
	r := &referenceReader{rest: data[3:]}
	count, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: batch count: %w", err)
	}
	if count > uint64(len(r.rest)) {
		return nil, fmt.Errorf("wire: count %d exceeds the %d remaining bytes", count, len(r.rest))
	}
	if count == 0 {
		if len(r.rest) != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes after an empty batch", len(r.rest))
		}
		return []core.PacketDigest{}, nil
	}
	var flow uint64
	flows, err := r.runs("flow", count, func(run int) (uint64, error) {
		u, err := r.uvarint()
		if err != nil {
			return 0, fmt.Errorf(": %w", err)
		}
		if run > 0 && u == 0 {
			return 0, fmt.Errorf(" repeats its predecessor's flow")
		}
		flow += uint64(int64(u>>1) ^ -int64(u&1))
		return flow, nil
	})
	if err != nil {
		return nil, err
	}
	var prevLen byte
	lens, err := r.runs("path-length", count, func(int) (uint64, error) {
		if len(r.rest) == 0 {
			return 0, fmt.Errorf(": truncated")
		}
		k := r.rest[0]
		r.rest = r.rest[1:]
		if k < 1 || k > 64 {
			return 0, fmt.Errorf(": length %d outside [1, 64]", k)
		}
		if k == prevLen {
			return 0, fmt.Errorf(" repeats its predecessor's length")
		}
		prevLen = k
		return uint64(k), nil
	})
	if err != nil {
		return nil, err
	}
	id, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: first packet id: %w", err)
	}
	ids, err := r.column("id", count-1)
	if err != nil {
		return nil, err
	}
	digests, err := r.column("digest", count)
	if err != nil {
		return nil, err
	}
	if len(r.rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after the digest column", len(r.rest))
	}
	out := make([]core.PacketDigest, count)
	for i := range out {
		if i > 0 {
			id += uint64(int64(ids[i-1]>>1) ^ -int64(ids[i-1]&1))
		}
		out[i] = core.PacketDigest{Flow: core.FlowKey(flows[i]), PktID: id, PathLen: int(lens[i]), Digest: digests[i]}
	}
	return out, nil
}

// adversarialBatch exercises the extremes of every column: maximal
// fields, sign flips between consecutive packets (full-width negative
// deltas), a flow and a path length that change on every packet.
func adversarialBatch() []core.PacketDigest {
	return []core.PacketDigest{
		{Flow: ^core.FlowKey(0), PktID: ^uint64(0), PathLen: coding.MaxPathLen, Digest: ^uint64(0)},
		{Flow: 0, PktID: 0, PathLen: 1, Digest: 0},
		{Flow: 1 << 63, PktID: 1<<63 - 1, PathLen: 64, Digest: 1 << 62},
		{Flow: 127, PktID: 128, PathLen: 2, Digest: 16383},
		{Flow: 128, PktID: 16384, PathLen: 3, Digest: 16384},
		{Flow: ^core.FlowKey(0) - 5, PktID: 3, PathLen: 1, Digest: 0x5555555555555555},
	}
}

// TestBulkMarshalBitIdentical pins the two-pass encoder to the reference
// byte for byte, including sizes that cross the count-varint width, every
// column width, and the run shapes producers frame (one flow, a few
// interleaved, one per packet).
func TestBulkMarshalBitIdentical(t *testing.T) {
	batches := map[string][]core.PacketDigest{
		"empty":       nil,
		"one":         sampleBatch(1),
		"small":       sampleBatch(7),
		"count2byte":  sampleBatch(300),
		"large":       sampleBatch(4096),
		"adversarial": adversarialBatch(),
		"testbench":   testbenchFrame(256),
		"sequential":  sequentialFrame(1024),
		"interleaved": interleavedFrame(256),
	}
	for w := 1; w <= 8; w++ {
		// One column at each width: IDs step by just under 2^(8w-1), digests
		// reach just under 2^(8w).
		top := ^uint64(0) >> (64 - 8*uint(w))
		batches[fmt.Sprintf("width%d", w)] = []core.PacketDigest{
			{Flow: 1, PktID: 5, PathLen: 3, Digest: top},
			{Flow: 1, PktID: 5 + top>>1, PathLen: 3, Digest: 1},
			{Flow: 1, PktID: 6, PathLen: 3, Digest: 0},
		}
	}
	for name, batch := range batches {
		got, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatalf("%s: bulk marshal: %v", name, err)
		}
		want, err := referenceMarshal(nil, batch)
		if err != nil {
			t.Fatalf("%s: reference marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: bulk encoding differs from reference:\nbulk %x\nref  %x", name, got, want)
		}
		back, err := AppendUnmarshalFlows(nil, got, nil)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		for i := range batch {
			if back[i] != batch[i] {
				t.Fatalf("%s: packet %d = %+v, want %+v", name, i, back[i], batch[i])
			}
		}
	}
}

// TestAppendMarshalRecycledBuffers pins the single-reservation grow logic
// on every buffer shape a recycling caller hands in: spare capacity (no
// grow, prefix kept), exact-fit capacity (no grow, fully used), and a
// short buffer (one grow, prefix kept).
func TestAppendMarshalRecycledBuffers(t *testing.T) {
	batch := sampleBatch(100)
	flat, err := AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("spare-capacity", func(t *testing.T) {
		dst := make([]byte, 0, len(flat)+512)
		dst = append(dst, 0xAA, 0xBB)
		out, err := AppendMarshal(dst, batch)
		if err != nil {
			t.Fatal(err)
		}
		if &out[0] != &dst[0] {
			t.Fatal("spare-capacity append reallocated")
		}
		if out[0] != 0xAA || out[1] != 0xBB {
			t.Fatal("prefix bytes clobbered")
		}
		if !bytes.Equal(out[2:], flat) {
			t.Fatal("payload after prefix differs from flat marshal")
		}
	})

	t.Run("exact-fit", func(t *testing.T) {
		dst := make([]byte, 0, len(flat))
		out, err := AppendMarshal(dst, batch)
		if err != nil {
			t.Fatal(err)
		}
		if &out[0] != &dst[:1][0] {
			t.Fatal("exact-fit append reallocated")
		}
		if len(out) != cap(dst) {
			t.Fatalf("exact-fit used %d of %d bytes", len(out), cap(dst))
		}
		if !bytes.Equal(out, flat) {
			t.Fatal("exact-fit payload differs from flat marshal")
		}
	})

	t.Run("short-grows-once", func(t *testing.T) {
		dst := append(make([]byte, 0, 4), 0xCC)
		out, err := AppendMarshal(dst, batch)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 0xCC {
			t.Fatal("prefix byte lost across the grow")
		}
		if !bytes.Equal(out[1:], flat) {
			t.Fatal("grown payload differs from flat marshal")
		}
	})
}

// TestAppendMarshalFrame pins the one-pass frame builder: its output must
// be exactly AppendFrame(AppendMarshal(...)), decodable by DecodeFrame,
// prefix-preserving, zero-alloc at steady state, and nil on marshal error.
func TestAppendMarshalFrame(t *testing.T) {
	batch := sampleBatch(256)
	payload, err := AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}

	frame, err := AppendMarshalFrame(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame differs from AppendFrame over AppendMarshal:\ngot  %x\nwant %x", frame, want)
	}
	gotPayload, rest, err := DecodeFrame(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !bytes.Equal(gotPayload, payload) {
		t.Fatal("frame payload does not round-trip through DecodeFrame")
	}

	withPrefix, err := AppendMarshalFrame([]byte{1, 2, 3}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withPrefix[:3], []byte{1, 2, 3}) || !bytes.Equal(withPrefix[3:], want) {
		t.Fatal("prefix not preserved by AppendMarshalFrame")
	}

	buf := frame
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendMarshalFrame(buf[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm AppendMarshalFrame allocates %.0f times per run, want 0", allocs)
	}

	if out, err := AppendMarshalFrame(nil, []core.PacketDigest{{PathLen: 0}}); err == nil || out != nil {
		t.Fatal("bad PathLen did not error with a nil slice")
	}
}

// fuzzBatch builds a marshal-direction batch from raw fuzz bytes: 25-byte
// chunks become (flow, pktID, digest, pathLen) with pathLen forced valid.
func fuzzBatch(data []byte) []core.PacketDigest {
	var batch []core.PacketDigest
	for i := 0; i+25 <= len(data) && len(batch) < 512; i += 25 {
		batch = append(batch, core.PacketDigest{
			Flow:    core.FlowKey(binary.LittleEndian.Uint64(data[i:])),
			PktID:   binary.LittleEndian.Uint64(data[i+8:]),
			Digest:  binary.LittleEndian.Uint64(data[i+16:]),
			PathLen: 1 + int(data[i+24]%coding.MaxPathLen),
		})
	}
	return batch
}

// FuzzMarshalParity is the wire half of the differential-fuzz safety net:
// arbitrary bytes drive both decoders (parse-then-fill vs byte-at-a-time
// reference) which must agree on packets, error presence, and error text;
// on success both encoders re-marshal bit-identically, and the same bytes
// reinterpreted as packet fields must marshal bit-identically through
// both encoders and the one-pass frame builder.
func FuzzMarshalParity(f *testing.F) {
	addBatch := func(batch []core.PacketDigest) {
		data, err := AppendMarshal(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	addBatch(sampleBatch(40))
	addBatch(adversarialBatch())
	f.Add(rawBatch(2, []byte{14, 0x82, 0x00}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}))                                                // non-minimal run count
	f.Add(rawBatch(2, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4})) // widest flow delta
	f.Add(bytes.Repeat([]byte{0x91}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, fastErr := AppendUnmarshalFlows(nil, data, nil)
		ref, refErr := referenceUnmarshal(data)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("decoder disagreement: fast err %v, reference err %v", fastErr, refErr)
		}
		if fastErr != nil {
			if fastErr.Error() != refErr.Error() {
				t.Fatalf("error text diverged:\nfast %q\nref  %q", fastErr, refErr)
			}
		} else {
			if len(fast) != len(ref) {
				t.Fatalf("fast decoded %d packets, reference %d", len(fast), len(ref))
			}
			for i := range ref {
				if fast[i] != ref[i] {
					t.Fatalf("packet %d: fast %+v, reference %+v", i, fast[i], ref[i])
				}
			}
			again, err := AppendMarshal(nil, fast)
			if err != nil {
				t.Fatalf("re-marshal of a decoded batch failed: %v", err)
			}
			refAgain, err := referenceMarshal(nil, ref)
			if err != nil {
				t.Fatalf("reference re-marshal failed: %v", err)
			}
			if !bytes.Equal(again, refAgain) || !bytes.Equal(again, data) {
				t.Fatalf("re-marshal not canonical:\nin   %x\nbulk %x\nref  %x", data, again, refAgain)
			}
		}

		batch := fuzzBatch(data)
		bulk, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatalf("bulk marshal of a valid batch failed: %v", err)
		}
		refBytes, err := referenceMarshal(nil, batch)
		if err != nil {
			t.Fatalf("reference marshal of a valid batch failed: %v", err)
		}
		if !bytes.Equal(bulk, refBytes) {
			t.Fatalf("marshal diverged:\nbulk %x\nref  %x", bulk, refBytes)
		}
		frame, err := AppendMarshalFrame(nil, batch)
		if err != nil {
			t.Fatalf("frame marshal failed: %v", err)
		}
		if !bytes.Equal(frame[FrameHeaderLen:], bulk) {
			t.Fatal("frame payload differs from bulk marshal")
		}
	})
}
