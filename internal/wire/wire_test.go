package wire

import (
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/hash"
)

// sampleBatch builds a stream shaped like a real sink tap: a few flows,
// monotone-ish packet IDs, constant path length, digests confined to a
// 16-bit budget.
func sampleBatch(n int) []core.PacketDigest {
	rng := hash.NewRNG(42)
	batch := make([]core.PacketDigest, n)
	for i := range batch {
		batch[i] = core.PacketDigest{
			Flow:    core.FlowKey(uint64(i%5)*2654435761 + 1),
			PktID:   uint64(i)*3 + rng.Uint64()%3,
			PathLen: 5 + i%3,
			Digest:  rng.Uint64() & 0xFFFF,
		}
	}
	return batch
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 256, 4096} {
		batch := sampleBatch(n)
		data, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		got, err := AppendUnmarshalFlows(nil, data, nil)
		if err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("n=%d: got %d packets, want %d", n, len(got), len(batch))
		}
		for i := range batch {
			if got[i] != batch[i] {
				t.Fatalf("n=%d: packet %d = %+v, want %+v", n, i, got[i], batch[i])
			}
		}
	}
}

func TestRoundTripExtremes(t *testing.T) {
	batch := []core.PacketDigest{
		{Flow: 0, PktID: 0, PathLen: 1, Digest: 0},
		{Flow: ^core.FlowKey(0), PktID: ^uint64(0), PathLen: coding.MaxPathLen, Digest: ^uint64(0)},
		{Flow: 1, PktID: 1, PathLen: 1, Digest: 1},
		{Flow: ^core.FlowKey(0) - 1, PktID: 2, PathLen: 64, Digest: 1<<63 + 7},
	}
	data, err := AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendUnmarshalFlows(nil, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("packet %d = %+v, want %+v", i, got[i], batch[i])
		}
	}
}

// testbenchFrame is the shape every exporter in the tree sends
// (core.Testbench.FlowBatch): one flow, 64-bit hash packet IDs, one path
// length, digests confined to a 16-bit budget.
func testbenchFrame(n int) []core.PacketDigest {
	rng := hash.NewRNG(7)
	batch := make([]core.PacketDigest, n)
	for i := range batch {
		batch[i] = core.PacketDigest{Flow: 1<<32 | 1, PktID: rng.Uint64(), PathLen: 5, Digest: rng.Uint64() & 0xFFFF}
	}
	return batch
}

// sequentialFrame is testbenchFrame with a counter for packet IDs.
func sequentialFrame(n int) []core.PacketDigest {
	batch := testbenchFrame(n)
	for i := range batch {
		batch[i].PktID = uint64(1_000_000 + i)
	}
	return batch
}

// interleavedFrame is the format's worst case: flow and path length both
// change on every packet, so each packet pays a run of its own in both
// run columns.
func interleavedFrame(n int) []core.PacketDigest {
	batch := testbenchFrame(n)
	for i := range batch {
		batch[i].Flow = core.FlowKey(1<<32 | uint64(1+i%2))
		batch[i].PathLen = 5 + i%2
	}
	return batch
}

// TestCompactness pins the measured cost table of the package comment:
// bytes per packet on the stream, frame header included, for the shape the
// daemons carry, for sequential IDs, and for the stated worst case.
func TestCompactness(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch []core.PacketDigest
		max   float64
	}{
		// 10 B of information (8 ID + 2 digest) per packet; the rest is the
		// frame header, the batch header, one run per column, id₀ and two
		// width bytes, spread over the frame.
		{"testbench", testbenchFrame(256), 10.25},
		// idW = 1: one ID byte and two digest bytes per packet.
		{"sequential", sequentialFrame(1024), 3.5},
		// 10 B + (flowΔ 1 + n 1) + (len 1 + n 1) per packet: 2 B/pkt above
		// what version 1 paid for the same batch (zero-width repeats aside).
		{"interleaved", interleavedFrame(256), 14.25},
	} {
		frame, err := AppendMarshalFrame(nil, tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		perPkt := float64(len(frame)) / float64(len(tc.batch))
		t.Logf("%s: %.3f B/pkt framed", tc.name, perPkt)
		if perPkt > tc.max {
			t.Errorf("%s: wire cost %.3f B/pkt, want <= %.2f", tc.name, perPkt, tc.max)
		}
	}
}

func TestAppendFormsReuseBuffers(t *testing.T) {
	batch := sampleBatch(300)
	buf, err := AppendMarshal(make([]byte, 0, 4096), batch)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]core.PacketDigest, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendMarshal(buf[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err = AppendUnmarshalFlows(pkts[:0], buf, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("append round trip allocates %.0f times per run, want 0", allocs)
	}
}

func TestMarshalRejectsBadPathLen(t *testing.T) {
	for _, k := range []int{0, -1, coding.MaxPathLen + 1} {
		if _, err := AppendMarshal(nil, []core.PacketDigest{{PathLen: k}}); err == nil {
			t.Fatalf("marshal accepted path length %d", k)
		}
	}
}

// rawBatch assembles a version-2 batch from hand-written sections: the
// header and count, then whatever bytes the caller lays behind them.
func rawBatch(count uint64, sections ...[]byte) []byte {
	out := binary.AppendUvarint([]byte{'P', 'D', Version}, count)
	for _, s := range sections {
		out = append(out, s...)
	}
	return out
}

// v1OnePacket is {Flow 7, PktID 99, PathLen 12, Digest 0xABCD} as the
// deleted version-1 encoder wrote it: four varints a record.
var v1OnePacket = []byte{'P', 'D', 1, 1, 14, 0xC6, 0x01, 24, 0xCD, 0xD7, 0x02}

// hostileBatches holds one input per rule of the package comment's
// strictness paragraph, each a one-edit neighbour of the valid two-packet
// batch
//
//	count 2 | flow 7 ×2 | len 5 ×2 | id₀ 9 | idW 1: +1 | dgW 1: 3, 4
//
// with the text the decoder must refuse it with. The fuzzers seed from it
// and the corpus regenerator commits it.
var hostileBatches = []struct {
	name string
	data []byte
	want string
}{
	{"empty-input", nil, "shorter than the 4-byte header"},
	{"bad-magic", []byte{'X', 'D', Version, 0}, "bad magic"},
	{"bad-version", []byte{'P', 'D', 99, 0}, "unsupported version 99"},
	{"v1-refused", v1OnePacket, "unsupported version 1 (have 2)"},
	{"hostile-count", []byte{'P', 'D', Version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, "exceeds the 0 remaining bytes"},
	{"count-over-bytes", rawBatch(12, []byte{14, 12}, []byte{5, 12}, []byte{9, 1, 2}, []byte{1, 3}), "count 12 exceeds the 9 remaining bytes"},
	{"nonminimal-varint", rawBatch(2, []byte{14, 0x82, 0x00}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "flow run 0: count: non-minimal varint"},
	{"nonminimal-count", append([]byte{'P', 'D', Version, 0x82, 0x00}, 14, 2, 5, 2, 9, 1, 2, 1, 3, 4), "batch count: non-minimal varint"},
	{"empty-batch-trailing", rawBatch(0, []byte{0}), "1 trailing bytes after an empty batch"},
	{"zero-length-run", rawBatch(2, []byte{14, 0, 2, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "flow run 0: holds 0 packets"},
	{"zero-length-len-run", rawBatch(2, []byte{14, 2}, []byte{5, 0, 6, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "path-length run 0: holds 0 packets"},
	{"repeated-flow-run", rawBatch(2, []byte{14, 1, 0, 1}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "flow run 1 repeats its predecessor's flow"},
	{"repeated-len-run", rawBatch(2, []byte{14, 2}, []byte{5, 1, 5, 1}, []byte{9, 1, 2}, []byte{1, 3, 4}), "path-length run 1 repeats its predecessor's length"},
	{"runs-over-count", rawBatch(2, []byte{14, 3}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "flow run 0: holds 3 packets, 2 remain"},
	{"runs-short-of-count", rawBatch(2, []byte{14, 1}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "flow run 1: holds 2 packets, 1 remain"},
	{"zero-pathlen", rawBatch(2, []byte{14, 2}, []byte{0, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "length 0 outside [1, 64]"},
	{"pathlen-65", rawBatch(2, []byte{14, 2}, []byte{65, 2}, []byte{9, 1, 2}, []byte{1, 3, 4}), "length 65 outside [1, 64]"},
	{"id-width-zero", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 0}, []byte{1, 3, 4}), "id column: width 0 outside [1, 8]"},
	{"digest-width-nine", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{9, 3, 4}), "digest column: width 9 outside [1, 8]"},
	{"nonminimal-id-width", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 2, 2, 0}, []byte{1, 3, 4}), "id column: width 2 is not minimal"},
	{"nonminimal-digest-width", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{2, 3, 0, 4, 0}), "digest column: width 2 is not minimal"},
	{"wide-empty-id-column", rawBatch(1, []byte{14, 1}, []byte{5, 1}, []byte{9, 2}, []byte{1, 3}), "id column: width 2 is not minimal"},
	{"id-column-short", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 1}), "id column: 1 values of 1 bytes exceed the 0 remaining bytes"},
	{"truncated-record", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3}), "digest column: 2 values of 1 bytes exceed the 1 remaining bytes"},
	{"trailing-byte", rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4, 0}), "1 trailing bytes after the digest column"},
}

// TestUnmarshalRejectsMalformed holds the decoder to the format's rules
// one at a time — canonical encodings only, bounded before allocation,
// path lengths in domain — and to every truncation of a valid batch: an
// error with the rule's text, no packets, never a panic.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	good := rawBatch(2, []byte{14, 2}, []byte{5, 2}, []byte{9, 1, 2}, []byte{1, 3, 4})
	pkts, err := AppendUnmarshalFlows(nil, good, nil)
	if err != nil || len(pkts) != 2 ||
		pkts[0] != (core.PacketDigest{Flow: 7, PktID: 9, PathLen: 5, Digest: 3}) ||
		pkts[1] != (core.PacketDigest{Flow: 7, PktID: 10, PathLen: 5, Digest: 4}) {
		t.Fatalf("the valid neighbour decodes to %+v, %v", pkts, err)
	}
	for _, tc := range hostileBatches {
		pkts, err := AppendUnmarshalFlows(nil, tc.data, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: unmarshal of %x: error %v, want one containing %q", tc.name, tc.data, err, tc.want)
		}
		if pkts != nil {
			t.Errorf("%s: unmarshal returned packets alongside an error", tc.name)
		}
		if n, cerr := Count(tc.data); cerr == nil || n != 0 || cerr.Error() != err.Error() {
			t.Errorf("%s: Count = %d, %v; AppendUnmarshalFlows failed with %v", tc.name, n, cerr, err)
		}
	}
	valid, err := AppendMarshal(nil, sampleBatch(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		if pkts, err := AppendUnmarshalFlows(nil, valid[:i], nil); err == nil || pkts != nil {
			t.Errorf("truncated@%d: unmarshal accepted %x", i, valid[:i])
		}
	}
}

// TestCountValidatesWithoutAllocating: Count returns what a full decode
// would have counted, on every batch shape, and neither it nor a refusal
// of a hostile header allocates — the claimed count is checked against
// the bytes present before anything is sized from it.
func TestCountValidatesWithoutAllocating(t *testing.T) {
	for _, batch := range [][]core.PacketDigest{nil, sampleBatch(1), sampleBatch(300), adversarialBatch(), testbenchFrame(256)} {
		data, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := Count(data); err != nil || n != len(batch) {
			t.Fatalf("Count = %d, %v; the batch holds %d packets", n, err, len(batch))
		}
		if allocs := testing.AllocsPerRun(50, func() { Count(data) }); allocs != 0 {
			t.Fatalf("Count of a %d-packet batch allocates %.0f times, want 0", len(batch), allocs)
		}
	}
	// A header claiming 2^20 packets over a 1 KiB body: refused from the
	// header, by Count and by both decoders, for the cost of the error
	// values — a buffer sized from the claim would be 32 MiB.
	hostile := append(rawBatch(1<<20), make([]byte, 1024)...)
	dsts := make([][]core.PacketDigest, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err1 := Count(hostile)
	_, err2 := AppendUnmarshalFlows(nil, hostile, nil)
	_, err3 := AppendUnmarshalSharded(dsts, hostile)
	runtime.ReadMemStats(&after)
	if err1 == nil || err2 == nil || err3 == nil {
		t.Fatal("hostile count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing a hostile count allocated %d bytes — something was sized from it", grew)
	}
}

// TestUnmarshalFlows: decoding only the asked-for flows yields exactly
// the full decode filtered, in order, for every subset shape — none,
// some, all, nil — and a batch holding no asked-for flow appends nothing
// and allocates nothing.
func TestUnmarshalFlows(t *testing.T) {
	batch := append(sampleBatch(300), interleavedFrame(64)...)
	data, err := AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	flows := map[core.FlowKey]bool{}
	for _, p := range batch {
		flows[p.Flow] = true
	}
	var all []core.FlowKey
	for f := range flows {
		all = append(all, f)
	}
	subsets := []map[core.FlowKey]bool{nil, {}, {12345: true}, flows}
	for i := range all {
		subsets = append(subsets, map[core.FlowKey]bool{all[i]: true}, map[core.FlowKey]bool{all[i]: true, all[(i+1)%len(all)]: true})
	}
	marker := core.PacketDigest{Flow: 99, PktID: 1, PathLen: 3}
	for _, only := range subsets {
		want := []core.PacketDigest{marker}
		for _, p := range batch {
			if only == nil || only[p.Flow] {
				want = append(want, p)
			}
		}
		got, err := AppendUnmarshalFlows([]core.PacketDigest{marker}, data, only)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("flows %v: decoded %d packets, the filtered full decode has %d", only, len(got), len(want))
		}
	}
	none := map[core.FlowKey]bool{12345: true}
	if allocs := testing.AllocsPerRun(50, func() {
		if got, err := AppendUnmarshalFlows(nil, data, none); err != nil || got != nil {
			t.Fatalf("a batch without the asked-for flow decoded to %d packets, %v", len(got), err)
		}
	}); allocs != 0 {
		t.Fatalf("stepping over a whole batch allocates %.0f times, want 0", allocs)
	}
}

func TestUnmarshalErrorLeavesDstUnextended(t *testing.T) {
	dst := make([]core.PacketDigest, 2, 8)
	out, err := AppendUnmarshalFlows(dst, rawBatch(3, []byte{14, 3}, []byte{5, 3}, []byte{9, 1, 2, 2}, []byte{1, 3, 4}), nil)
	if err == nil {
		t.Fatal("want error for truncated batch")
	}
	if len(out) != len(dst) {
		t.Fatalf("dst grew to %d on error, want %d", len(out), len(dst))
	}
}
