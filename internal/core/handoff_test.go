package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/coding"
)

// referenceFlowStates records the three-query plan's reference stream with
// sketchItems and returns the Recording, its queries in section order, and
// every flow's hand-off blob in flow order.
func referenceFlowStates(t testing.TB, sketchItems int) (*Recording, []Query, [][]byte) {
	t.Helper()
	eng, path, lat, util := combinedTestPlan(t, 139)
	queries := []Query{path, lat, util}
	rec, err := NewRecordingSeeded(eng, sketchItems, 0xB10B)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(cloneWorkload(t, eng, 149, 5, 3000, 6)); err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for _, f := range rec.Flows() {
		blob, err := rec.AppendFlowState(nil, queries, f)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return rec, queries, blobs
}

// flowStateDigest hashes, in flow order, the hand-off blob of every flow
// of a Recording fed the three-query plan's reference stream.
func flowStateDigest(t *testing.T, sketchItems int) string {
	t.Helper()
	rec, queries, blobs := referenceFlowStates(t, sketchItems)
	h := sha256.New()
	arena := []byte("earlier states")
	for i, f := range rec.Flows() {
		blob := blobs[i]
		h.Write(blob)
		// The blob is encoded where it lands: behind other bytes it is the
		// same blob, and they are untouched.
		at := len(arena)
		var err error
		if arena, err = rec.AppendFlowState(arena, queries, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(arena[at:], blob) || !bytes.HasPrefix(arena, []byte("earlier states")) {
			t.Fatalf("flow %d: state appended behind %d bytes differs from the state appended to nil", f, at)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestFlowStateBlobsUnchanged pins AppendFlowState's bytes: the hand-off
// format is a wire format between fleet members of different builds. The
// digests were taken from the tree that still compiled the frequent-value
// and Morris-count queries, for this same path+latency+util plan and
// stream, so they also hold that dropping those two kinds moved no byte
// of the three that remain.
func TestFlowStateBlobsUnchanged(t *testing.T) {
	want := map[string]string{
		"raw":      "73e3e4252a6775ec",
		"sketched": "d09b3b2d6d4d4684",
	}
	for _, v := range storageVariants {
		if v.latBits != 8 {
			continue
		}
		if got := flowStateDigest(t, v.sketchItems); got != want[v.name] {
			t.Errorf("%s: flow-state blobs hash to %s, want %s", v.name, got, want[v.name])
		}
	}
}

// flowStateSections splits a blob into its sections' raw bytes, keyed by
// query name (test-side parse of the layout in handoff.go).
func flowStateSections(t testing.TB, blob []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	rest := blob[2:]
	for n := int(blob[1]); n > 0; n-- {
		nameLen, a := binary.Uvarint(rest)
		name := string(rest[a : a+int(nameLen)])
		at := a + int(nameLen) + 1
		payloadLen, b := binary.Uvarint(rest[at:])
		end := at + b + int(payloadLen)
		out[name], rest = rest[:end], rest[end:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last section", len(rest))
	}
	return out
}

// TestRestoreFlowStateRejectsImpossibleState: a raw latency sample the
// query's digest slice could not have carried, and a latency section
// whose hop count disagrees with the flow's path length, are refused with
// an error naming flow and hop — not stored (where a code-width store
// would truncate the sample into some other code) — and the destination
// stays untouched.
func TestRestoreFlowStateRejectsImpossibleState(t *testing.T) {
	const flow = FlowKey(77)
	cfg, err := DefaultPathConfig(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPathQuery("path", cfg, 1, 151, testUniverse(5, 80))
	if err != nil {
		t.Fatal(err)
	}
	lat := latQueryOfBits(t, 4, 1, 151)
	queries := []Query{path, lat}
	eng, err := Compile(queries, 12, 157)
	if err != nil {
		t.Fatal(err)
	}
	blobAt := func(k int) []byte {
		rec, err := NewRecordingSeeded(eng, 0, 163)
		if err != nil {
			t.Fatal(err)
		}
		pkts := testbenchFlow(eng, flow, 167, 400)
		for i := range pkts {
			pkts[i].PathLen = k
		}
		if err := rec.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}
		blob, err := rec.AppendFlowState(nil, queries, flow)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	restore := func(blob []byte) error {
		dst, err := NewRecordingSeeded(eng, 0, 163)
		if err != nil {
			t.Fatal(err)
		}
		err = dst.RestoreFlowState(queries, flow, blob)
		if err != nil && dst.HasFlow(flow) {
			t.Fatal("a refused restore left the flow behind")
		}
		return err
	}
	good := blobAt(5)
	if err := restore(good); err != nil {
		t.Fatalf("valid blob refused: %v", err)
	}

	// The latency section is last and its last byte is hop 5's last
	// sample: a 4-bit code, one uvarint byte. 0x7F is still one byte, so
	// the blob stays well-formed — only the sample is out of range.
	patched := append([]byte(nil), good...)
	if patched[len(patched)-1] >= 16 {
		t.Fatalf("last byte %#x is not a 4-bit sample", patched[len(patched)-1])
	}
	patched[len(patched)-1] = 0x7F
	err = restore(patched)
	if err == nil || !strings.Contains(err.Error(), "flow 77 hop 5") {
		t.Fatalf("out-of-range sample: got %v, want an error naming flow 77 hop 5", err)
	}

	// The section count (2, byte 1) re-spelled in two bytes: same value,
	// but not what AppendFlowState writes.
	err = restore(slices.Concat(good[:1], []byte{good[1] | 0x80, 0x00}, good[2:]))
	if err == nil || !strings.Contains(err.Error(), "at byte 1 is not minimally encoded") {
		t.Fatalf("non-minimal varint: got %v, want an error naming byte 1", err)
	}

	// Path section from a 5-hop recording, latency section from a 6-hop one.
	five, six := flowStateSections(t, good), flowStateSections(t, blobAt(6))
	if !bytes.Equal(slices.Concat(good[:2], five["path"], five["lat"]), good) {
		t.Fatal("section splitter does not reassemble the blob it split")
	}
	err = restore(slices.Concat(good[:2], five["path"], six["lat"]))
	if err == nil || !strings.Contains(err.Error(), "flow 77") || !strings.Contains(err.Error(), "path length is 5") {
		t.Fatalf("hop-count mismatch: got %v, want an error naming flow 77 and its path length", err)
	}
}

// uvarints spells a blob fragment as the uvarints it is.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// flowStateSection is one section of a hand-off blob: q's name, its kind,
// and the length-prefixed payload.
func flowStateSection(q Query, payload []byte) []byte {
	b := append(uvarints(uint64(len(q.Name()))), q.Name()...)
	return slices.Concat(append(b, sectionKind(q)), uvarints(uint64(len(payload))), payload)
}

// flowStateRow is a hand-off blob and what RestoreFlowState must say about
// it ("" = accept).
type flowStateRow struct {
	name, wantErr string
	blob          []byte
}

// flowStateRows are blobs around the edge of what AppendFlowState writes
// for the reference Recording's plan: one it wrote, hand-built ones it
// could have written, and one per rule a blob it could not have written
// breaks (each of those was accepted once, and re-emitted as something
// else).
func flowStateRows(t testing.TB, queries []Query, reference []byte) []flowStateRow {
	lat, util := queries[1], queries[2]
	sec := flowStateSections(t, reference)
	for _, q := range queries {
		if sec[q.Name()] == nil {
			t.Fatalf("reference blob has no %s section", q.Name())
		}
	}
	blob := func(sections ...[]byte) []byte {
		return slices.Concat(append([][]byte{{flowStateVersion, byte(len(sections))}}, sections...)...)
	}
	// The util section re-spelled under another section kind: the payload
	// is a valid series, only the kind byte changes.
	utilAs := func(kind byte) []byte {
		s := slices.Clone(sec["util"])
		s[1+len(util.Name())] = kind
		return s
	}
	// A two-bucket sliding-window sketch with empty buckets, as kind 3
	// carried one: version, buckets, span, k, cur, inCur, RNG, ring.
	window := uvarints(1, 2, 1, 8, 0, 0, 1, 2, 3, 4, 0, 0)
	path := sec["path"]
	return []flowStateRow{
		{"reference", "", reference},
		{"util series alone", "", blob(sec["util"])},
		{"sections out of query order", `section "path" out of query order`,
			blob(sec["lat"], path, sec["util"])},
		{"repeated section", `section "path" out of query order`, blob(path, path, sec["util"])},
		// 4 and 5 were the frequent-value and Morris-count families.
		{"section kind 4", "section kind 4, want 3", blob(path, sec["lat"], utilAs(4))},
		{"section kind 5", "section kind 5, want 3", blob(path, sec["lat"], utilAs(5))},
		{"latency store kind 3", "latency store kind 3",
			blob(flowStateSection(lat, slices.Concat(uvarints(1), []byte{3}, uvarints(uint64(len(window))), window)))},
	}
}

// TestRestoreFlowStateRefusesWhatAppendNeverWrites: RestoreFlowState
// accepts exactly the blobs AppendFlowState writes. Each refused row breaks
// one rule of the layout — sections in query order, each section of its
// query's kind (kinds 4 and 5 are no query's), latency store kinds raw and
// KLL — and is refused naming it, leaving the destination untouched; each
// accepted row re-emits byte for byte.
func TestRestoreFlowStateRefusesWhatAppendNeverWrites(t *testing.T) {
	const flow = FlowKey(1)
	rec, queries, blobs := referenceFlowStates(t, 0)
	for _, row := range flowStateRows(t, queries, blobs[0]) {
		dst, err := NewRecordingSeeded(rec.engine, 0, 0xB10B)
		if err != nil {
			t.Fatal(err)
		}
		err = dst.RestoreFlowState(queries, flow, row.blob)
		switch {
		case row.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", row.name, err)
		case row.wantErr == "":
			if again, err := dst.AppendFlowState(nil, queries, flow); err != nil || !bytes.Equal(again, row.blob) {
				t.Errorf("%s: re-emitted differently (err %v)", row.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), row.wantErr):
			t.Errorf("%s: got %v, want an error containing %q", row.name, err, row.wantErr)
		case dst.HasFlow(flow):
			t.Errorf("%s: a refused restore left the flow behind", row.name)
		}
	}
}

// FuzzFlowState: whatever bytes arrive as a flow's hand-off state,
// RestoreFlowState either refuses them, leaving the destination untouched,
// or yields a flow that (1) re-emits the very same bytes — the blob was one
// AppendFlowState could have written — and (2) keeps recording packets of
// the plan into a state that is again accepted. Seeds are every flow's
// blob of the raw and sketched reference Recordings and flowStateRows.
func FuzzFlowState(f *testing.F) {
	const flow = FlowKey(1)
	rec, queries, raw := referenceFlowStates(f, 0)
	_, _, sketched := referenceFlowStates(f, 24)
	for _, blob := range slices.Concat(raw, sketched) {
		f.Add(blob)
	}
	for _, row := range flowStateRows(f, queries, raw[0]) {
		f.Add(row.blob)
	}
	more := cloneWorkload(f, rec.engine, 151, 1, 64, 6)
	f.Fuzz(func(t *testing.T, blob []byte) {
		restore := func(data []byte) (*Recording, error) {
			dst, err := NewRecordingSeeded(rec.engine, 0, 0xB10B)
			if err != nil {
				t.Fatal(err)
			}
			err = dst.RestoreFlowState(queries, flow, data)
			if err != nil && dst.HasFlow(flow) {
				t.Fatalf("a refused restore left the flow behind: %v", err)
			}
			return dst, err
		}
		dst, err := restore(blob)
		if err != nil {
			return
		}
		if again, err := dst.AppendFlowState(nil, queries, flow); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("accepted state re-emits differently (err %v):\n got %x\nwant %x", err, again, blob)
		}
		if err := dst.RecordBatch(more); err != nil {
			t.Fatalf("recording into the restored flow: %v", err)
		}
		final, err := dst.AppendFlowState(nil, queries, flow)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restore(final); err != nil {
			t.Fatalf("the state the restored flow recorded into is refused: %v", err)
		}
	})
}

// TestShortenedRouteFlowHandsOff: a flow whose route shortens (§7) between
// the packet that starts its path decoder and the first packet that
// reaches its latency query still states one hop count in every section —
// the per-hop slots are sized by the flow's path length, not by whichever
// packet first reached them — so the state RestoreFlowState insists on is
// the state record builds, and the flow survives a resize.
func TestShortenedRouteFlowHandsOff(t *testing.T) {
	const flow = FlowKey(1)
	eng, path, lat, util := combinedTestPlan(t, 139)
	queries := []Query{path, lat, util}
	pkts := cloneWorkload(t, eng, 173, 1, 600, 6)
	// Lead with a packet that carries the path query and not the latency
	// query; every packet after it arrives over the 5-hop route.
	first := slices.IndexFunc(pkts, func(p PacketDigest) bool {
		set := eng.SetFor(p.PktID).Queries
		return slices.Contains(set, Query(path)) && !slices.Contains(set, Query(lat))
	})
	if first < 0 {
		t.Fatal("no packet selects the path query without the latency query")
	}
	pkts[0], pkts[first] = pkts[first], pkts[0]
	for i := 1; i < len(pkts); i++ {
		pkts[i].PathLen = 5
	}
	rec, err := NewRecordingSeeded(eng, 0, 179)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{path, lat} {
		if got := rec.Hops(q, flow); got != 6 {
			t.Errorf("%s answers for %d hops, want the flow's path length 6", q.Name(), got)
		}
	}
	if n := rec.LatencySamples(lat, flow, 6); n != 0 {
		t.Errorf("hop 6 holds %d samples; no packet crossed it after the route shortened", n)
	}
	blob, err := rec.AppendFlowState(nil, queries, flow)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewRecordingSeeded(eng, 0, 179)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreFlowState(queries, flow, blob); err != nil {
		t.Fatalf("a state record built was refused: %v", err)
	}
	if again, err := dst.AppendFlowState(nil, queries, flow); err != nil || !bytes.Equal(blob, again) {
		t.Fatalf("hand-off round trip changed the blob (err %v)", err)
	}
	// The restored flow keeps its path length: a query it reaches only now
	// is sized like the rest.
	if dst.flows[flow].k != 6 {
		t.Errorf("restored path length %d, want 6", dst.flows[flow].k)
	}
}

// TestRestoreFlowStateRejectsHostileDecoderState: a path section that is
// well-formed but that no decoder of the plan could have written — the
// states coding.TestDecoderStateRejectsCorrupt refuses at the decoder —
// is refused at the hand-off too, naming the packet, and the destination
// stays untouched. Restored, the first of them used to panic the shard
// worker on a later packet of the flow.
func TestRestoreFlowStateRejectsHostileDecoderState(t *testing.T) {
	const flow = FlowKey(77)
	cfg, err := DefaultPathConfig(8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	u := testUniverse(5, 80)
	path, err := NewPathQuery("path", cfg, 1, 151, u)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{path}
	eng, err := Compile(queries, 8, 157)
	if err != nil {
		t.Fatal(err)
	}
	// A one-instance k=5 decoder state, spelled as the uvarints it is: a
	// live packet waiting on hops 1 and 2, hop 3 narrowed to two
	// candidates, hop 5 decoded.
	head := []uint64{1, 5, 1, uint64(len(u)), 9, 1}
	blocks := []uint64{0, 0, 0, 0, 0, 0, 0, 0, 1, u[4]}
	cands := []uint64{1, 0, 0, 1, 2, u[1], u[7], 0, 1, 1, u[4]}
	pkts := []uint64{1, 77, 0, 0b00011, 0, 1, 0xAB}
	pending := []uint64{1, 1, 0, 1, 1, 0, 0, 0, 0}
	cases := []struct {
		name    string
		parts   [][]uint64
		wantErr string // "" for the state that must restore
	}{
		{"valid", [][]uint64{head, {1}, blocks, cands, pkts, pending}, ""},
		{"three residual words into a one-word decoder",
			[][]uint64{head, {1}, blocks, cands, {1, 77, 0, 0b00011, 0, 3, 1, 2, 3}, pending},
			"packet 0 carries 3 residual words"},
		{"mask bit beyond k",
			[][]uint64{head, {1}, blocks, cands, {1, 77, 0, 0b100011, 0, 1, 0xAB}, pending},
			"packet 0 mask 0x23"},
		{"pending index entry without the hop's bit",
			[][]uint64{head, {1}, blocks, cands, pkts, {1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0}},
			"hop 3: pending index lists packet 0"},
		{"candidates out of universe order",
			[][]uint64{head, {1}, blocks, {1, 0, 0, 1, 2, u[7], u[1], 0, 1, 1, u[4]}, pkts, pending},
			"hop 3: candidate"},
		{"decodedHops disagreeing with known",
			[][]uint64{head, {3}, blocks, cands, pkts, pending},
			"claims 3 decoded hops"},
	}
	for _, c := range cases {
		blob := append([]byte{flowStateVersion, 1}, flowStateSection(path, uvarints(slices.Concat(c.parts...)...))...)
		dst, err := NewRecordingSeeded(eng, 0, 163)
		if err != nil {
			t.Fatal(err)
		}
		err = dst.RestoreFlowState(queries, flow, blob)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.wantErr == "":
			// The restored flow keeps recording: nothing in the state it
			// was given can index outside it.
			if err := dst.RecordBatch(testbenchFlow(eng, flow, 167, 400)); err != nil {
				t.Errorf("%s: recording into the restored flow: %v", c.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		case dst.HasFlow(flow):
			t.Errorf("%s: a refused restore left the flow behind", c.name)
		}
	}
}

// TestNewPathQueryRejectsBadUniverse: an empty or duplicated universe is a
// plan error — NewPathQuery's, so Compile never sees the query — not one
// the first packet of the first flow finds in the record stage.
func TestNewPathQueryRejectsBadUniverse(t *testing.T) {
	cfg, err := DefaultPathConfig(8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPathQuery("path", cfg, 1, 151, nil); err == nil {
		t.Error("hashed path query without a universe accepted")
	}
	if _, err := NewPathQuery("path", cfg, 1, 151, []uint64{7, 8, 7}); err == nil || !strings.Contains(err.Error(), "7 duplicated") {
		t.Errorf("duplicated universe: got %v, want an error naming the value", err)
	}
	raw := coding.Config{Bits: 16, Mode: coding.ModeRaw, ValueBits: 16, Layering: coding.PureBaseline()}
	if _, err := NewPathQuery("path", raw, 1, 151, nil); err == nil || !strings.Contains(err.Error(), "raw") {
		t.Errorf("raw path query: got %v, want a refusal naming the mode", err)
	}
}
