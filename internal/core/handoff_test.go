package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/coding"
)

// The reference stream's length, ~87 latency samples per (flow, hop), and
// a length at which every raw store holds more than 128 samples (~350),
// the length from which stores once began to travel as counts.
const referencePkts, foldedPkts = 3000, 12000

// referenceFlowStates records the first n packets of the three-query
// plan's reference stream and returns the Recording, its queries in
// section order, and every flow's hand-off blob in flow order.
func referenceFlowStates(t testing.TB, n int) (*Recording, []Query, [][]byte) {
	t.Helper()
	eng, path, lat, util := combinedTestPlan(t, 139)
	queries := []Query{path, lat, util}
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(cloneWorkload(t, eng, 149, 5, n, 6)); err != nil {
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
// of a Recording fed n packets of the three-query plan's reference stream.
func flowStateDigest(t *testing.T, n int) string {
	t.Helper()
	rec, queries, blobs := referenceFlowStates(t, n)
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
// second digest is of a longer stream, whose raw stores hold more than 128
// samples each, and was taken when one-byte stores began to travel as
// counts (kind 4) from 128 samples on. The raw digest was taken when every
// nonempty one-byte store began to travel as counts; the two streams'
// stores now travel alike. The blobs of sketched stores are pinned, and
// refused, by TestSketchedFlowStatesRefused.
func TestFlowStateBlobsUnchanged(t *testing.T) {
	if got, want := flowStateDigest(t, referencePkts), "2a079615c18a9f36"; got != want {
		t.Errorf("raw: flow-state blobs hash to %s, want %s", got, want)
	}
	if got, want := flowStateDigest(t, foldedPkts), "0b631441da02f0d3"; got != want {
		t.Errorf("raw, %d packets: flow-state blobs hash to %s, want %s", foldedPkts, got, want)
	}
}

// sketchedFlowStates returns, in flow order, the hand-off blobs of the
// reference stream's first referencePkts packets recorded into 24-item KLL
// sketches (latency store kind 2), as the last build that kept sketches
// wrote them.
func sketchedFlowStates(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "sketched-flowstate", "*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no sketched flow states in testdata (%v)", err)
	}
	var blobs [][]byte
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// TestSketchedFlowStatesRefused: latency store kind 2, once a KLL sketch,
// is a refused number. The sketched reference blobs still hash to the
// digest TestFlowStateBlobsUnchanged pinned for them while sketches
// travelled, so they are those very bytes, and each is now refused with
// no flow left behind.
func TestSketchedFlowStatesRefused(t *testing.T) {
	const flow = FlowKey(1)
	blobs := sketchedFlowStates(t)
	h := sha256.New()
	for _, blob := range blobs {
		h.Write(blob)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)[:8]), "d09b3b2d6d4d4684"; got != want {
		t.Fatalf("sketched flow-state blobs hash to %s, want %s", got, want)
	}
	eng, path, lat, util := combinedTestPlan(t, 139)
	queries := []Query{path, lat, util}
	for i, blob := range blobs {
		dst, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		err = dst.RestoreFlowState(queries, flow, blob)
		if err == nil || !strings.Contains(err.Error(), "latency store kind 2") {
			t.Errorf("blob %d: restore returned %v, want a refusal of store kind 2", i, err)
		}
		if dst.TrackedFlows() != 0 {
			t.Errorf("blob %d: the refused restore left %d flows behind", i, dst.TrackedFlows())
		}
	}
}

// TestNewRecordingSeededRefusesSketches: the deprecated constructor
// refuses a caller that asks for latency sketches, and otherwise is
// NewRecording whatever the seed: fed the reference stream, it writes the
// reference blobs.
func TestNewRecordingSeededRefusesSketches(t *testing.T) {
	ref, queries, want := referenceFlowStates(t, referencePkts)
	if rec, err := NewRecordingSeeded(ref.engine, 24, 0xB10B); err == nil || rec != nil {
		t.Fatalf("NewRecordingSeeded with 24 sketch items returned (%v, %v), want a refusal", rec, err)
	}
	rec, err := NewRecordingSeeded(ref.engine, 0, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(cloneWorkload(t, ref.engine, 149, 5, referencePkts, 6)); err != nil {
		t.Fatal(err)
	}
	if rec.TrackedFlows() != len(want) {
		t.Fatalf("a seeded Recording tracks %d flows, NewRecording's %d", rec.TrackedFlows(), len(want))
	}
	for i, f := range rec.Flows() {
		if got, err := rec.AppendFlowState(nil, queries, f); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("flow %d: a seeded Recording's state differs from NewRecording's (err %v)", f, err)
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

// TestRestoreFlowStateRejectsImpossibleState: a latency code the query's
// digest slice could not have carried, and a latency section whose hop
// count disagrees with the flow's path length, are refused with an error
// naming flow and hop — not stored (where a code-width store would
// truncate the sample into some other code) — and the destination stays
// untouched.
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
		rec, err := NewRecording(eng)
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
		dst, err := NewRecording(eng)
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

	// The latency section re-spelled with hop 5 counting codes 15 and 16:
	// the blob stays well-formed, only code 16 is out of range.
	five := flowStateSections(t, good)
	store := histStore(3, 1)
	lat5 := flowStateSection(lat, slices.Concat(uvarints(5), store, store, store, store, histStore(15, 1, 1)))
	if err := restore(slices.Concat(good[:2], five["path"], flowStateSection(lat, slices.Concat(uvarints(5), store, store, store, store, store)))); err != nil {
		t.Fatalf("hand-built latency section refused: %v", err)
	}
	err = restore(slices.Concat(good[:2], five["path"], lat5))
	if err == nil || !strings.Contains(err.Error(), "flow 77 hop 5") {
		t.Fatalf("out-of-range code: got %v, want an error naming flow 77 hop 5", err)
	}

	// The section count (2, byte 1) re-spelled in two bytes: same value,
	// but not what AppendFlowState writes.
	err = restore(slices.Concat(good[:1], []byte{good[1] | 0x80, 0x00}, good[2:]))
	if err == nil || !strings.Contains(err.Error(), "at byte 1 is not minimally encoded") {
		t.Fatalf("non-minimal varint: got %v, want an error naming byte 1", err)
	}

	// Path section from a 5-hop recording, latency section from a 6-hop one.
	six := flowStateSections(t, blobAt(6))
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
		// A nonempty store travels as counts (kind 4): a raw one (kind 1)
		// is an empty one.
		{"raw store of no one-byte samples", "", oneStore(lat, rawStore(0))},
		{"raw store of 1 one-byte sample", "1 raw one-byte latency samples, which this build takes only as counts",
			oneStore(lat, rawStore(1))},
		{"raw store of 127 one-byte samples", "127 raw one-byte latency samples, which this build takes only as counts",
			oneStore(lat, rawStore(127))},
		{"raw store of 128 one-byte samples", "128 raw one-byte latency samples, which this build takes only as counts",
			oneStore(lat, rawStore(128))},
		{"histogram", "", oneStore(lat, histStore(10, 100, 28))},
		{"histogram of 129 samples", "", oneStore(lat, histStore(10, 100, 29))},
		{"histogram of 1 sample", "", oneStore(lat, histStore(10, 1))},
		{"histogram of code 255 alone", "", oneStore(lat, histStore(255, 256))},
		{"histogram counting 2^32 samples of one code", "", oneStore(lat, histStore(10, math.MaxUint32, 1))},
		{"histogram counting 2^62 samples", "", oneStore(lat, histStore(10, 1<<62-1, 1))},
		{"histogram of no samples", "latency histogram of 0 samples", oneStore(lat, histStore(10))},
		{"histogram counting a total of 0", "latency histogram of 0 samples", oneStore(lat, histStore(10, 0, 0))},
		{"histogram of 127 samples", "", oneStore(lat, histStore(10, 100, 27))},
		{"histogram with a zero first count", "not trimmed", oneStore(lat, histStore(9, 0, 100, 28))},
		{"histogram with a zero last count", "not trimmed", oneStore(lat, histStore(10, 100, 28, 0))},
		{"histogram past code 255", "codes 251 to 256 does not fit 8 bits", oneStore(lat, histStore(251, 64, 0, 0, 0, 0, 64))},
		{"histogram past 2^62 samples", "more than 2^62 samples", oneStore(lat, histStore(10, 1<<62, 1))},
		{"histogram whose total wraps", "more than 2^62 samples", oneStore(lat, histStore(10, 1<<63, 1<<63, 128))},
	}
}

// oneStore is a blob holding only a latency section of one hop, that store.
func oneStore(lat Query, store []byte) []byte {
	return append([]byte{flowStateVersion, 1}, flowStateSection(lat, append(uvarints(1), store...))...)
}

// rawStore is a raw latency store (kind 1) of n samples of code 7.
func rawStore(n int) []byte {
	return append(append([]byte{storeRaw}, uvarints(uint64(n))...), bytes.Repeat([]byte{7}, n)...)
}

// histStore is a histogram store (kind 4): counts for the codes from lo
// on.
func histStore(lo uint64, counts ...uint64) []byte {
	return slices.Concat([]byte{storeHist}, uvarints(lo, uint64(len(counts))), uvarints(counts...))
}

// TestRestoreFlowStateRefusesWhatAppendNeverWrites: RestoreFlowState
// accepts exactly the blobs AppendFlowState writes. Each refused row breaks
// one rule of the layout — sections in query order, each section of its
// query's kind (kinds 4 and 5 are no query's), a latency section of at
// least one hop, latency store kinds raw and histogram (kinds 2 and 3 are
// no store's), a store raw only when empty and counts otherwise (the
// histogram trimmed, within the codes, of at least one and at most 2^62
// samples) — and is refused naming it, leaving the destination untouched;
// each accepted row re-emits byte for byte and answers every latency
// quantile.
func TestRestoreFlowStateRefusesWhatAppendNeverWrites(t *testing.T) {
	const flow = FlowKey(1)
	rec, queries, blobs := referenceFlowStates(t, referencePkts)
	for _, row := range flowStateRows(t, queries, blobs[0]) {
		checkRestoreRow(t, rec.engine, queries, flow, row)
	}
	// A flow's path length is at least 1 (Recording.record), so no
	// latency section holds 0 stores.
	checkRestoreRow(t, rec.engine, queries, flow, flowStateRow{"latency section of 0 hops", "state for 0 hops",
		append([]byte{flowStateVersion, 1}, flowStateSection(queries[1], uvarints(0))...)})
}

// checkRestoreRow restores row's blob as flow into an empty Recording of
// eng and checks what RestoreFlowState says against the row.
func checkRestoreRow(t *testing.T, eng *Engine, queries []Query, flow FlowKey, row flowStateRow) {
	t.Helper()
	dst, err := NewRecording(eng)
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
		answerLatency(t, dst, queries, flow)
	case err == nil || !strings.Contains(err.Error(), row.wantErr):
		t.Errorf("%s: got %v, want an error containing %q", row.name, err, row.wantErr)
	case dst.HasFlow(flow):
		t.Errorf("%s: a refused restore left the flow behind", row.name)
	}
}

// answerLatency asks every latency query of rec for the lowest, median and
// highest code of each of flow's hops that holds samples.
func answerLatency(t *testing.T, rec *Recording, queries []Query, flow FlowKey) {
	t.Helper()
	for _, q := range queries {
		lat, ok := q.(*LatencyQuery)
		if !ok {
			continue
		}
		for hop := 1; hop <= rec.Hops(lat, flow); hop++ {
			if _, err := rec.LatencyQuantiles(lat, flow, hop, 0, 0.5, 1); err != nil && rec.LatencySamples(lat, flow, hop) != 0 {
				t.Errorf("flow %d hop %d: %v", flow, hop, err)
			}
		}
	}
}

// TestLatencyHistogramCounts: a store restored with 2^32-1 samples of one
// code and one of the next counts on past 32 bits, and its quantiles stay
// within the codes it holds; a store restored a few samples short of
// maxLatSamples takes samples up to it and no further, and its blob is
// accepted again.
func TestLatencyHistogramCounts(t *testing.T) {
	const flow = FlowKey(1)
	ref, queries, _ := referenceFlowStates(t, referencePkts)
	eng, lat := ref.engine, queries[1].(*LatencyQuery)
	restore := func(counts ...uint64) (*Recording, latStore) {
		rec, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RestoreFlowState(queries, flow, oneStore(lat, histStore(10, counts...))); err != nil {
			t.Fatal(err)
		}
		st, _ := rec.store(lat, flow, 1)
		return rec, st
	}
	rec, st := restore(math.MaxUint32, 1)
	for range math.MaxUint8 + 1 {
		st.add(10)
	}
	if got, want := st.sum().counts[0], uint64(math.MaxUint32)+math.MaxUint8; got != want {
		t.Fatalf("code 10 counted %d times, want %d", got, want)
	}
	if got, want := rec.LatencySamples(lat, flow, 1), math.MaxUint32+1+math.MaxUint8+1; got != want {
		t.Fatalf("%d samples, want %d", got, want)
	}
	codes := make([]float64, 3)
	st.countQuantiles([]float64{0, 0.5, 1}, codes)
	if !slices.Equal(codes, []float64{10, 10, 11}) {
		t.Fatalf("codes at phi 0, 0.5, 1: %v, want [10 10 11]", codes)
	}

	const short = 130
	rec, st = restore(maxLatSamples-short-1, 1)
	for range 3 * short {
		st.add(11)
	}
	// No tail fits: a full one could pass the cap.
	if got := maxLatSamples - uint64(st.samples()); got != short {
		t.Fatalf("a store restored %d samples short of maxLatSamples ends %d short of it", short, got)
	}
	blob, err := rec.AppendFlowState(nil, queries, flow)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.RestoreFlowState(queries, flow, blob); err != nil {
		t.Fatalf("the blob of a store at its cap is refused: %v", err)
	}
}

// TestLatencyCodeIsOneByte: a latency query's code is at most one byte,
// which is all the Recording counts. NewLatencyQuery accepts 1 to 8 bits
// and refuses anything else naming the limit. A flow recorded under a
// 4-bit and under an 8-bit query hands off and restores to the same
// answers and the same blob.
func TestLatencyCodeIsOneByte(t *testing.T) {
	for bits := -1; bits <= 64; bits++ {
		_, err := NewLatencyQuery("lat", bits, 0.04, 1, 191)
		if ok := bits >= 1 && bits <= 8; ok != (err == nil) || !ok && !strings.Contains(err.Error(), "one-byte codes") {
			t.Errorf("%d bits: %v", bits, err)
		}
	}
	const flow, k = FlowKey(1), 5 // cloneWorkload's one flow
	for _, c := range []struct {
		bits int
		eps  float64
	}{{4, 0.9}, {8, 0.04}} {
		lat, err := NewLatencyQuery("lat", c.bits, c.eps, 1, 193)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Compile([]Query{lat}, c.bits, 197)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecordBatch(cloneWorkload(t, eng, 211, 1, 2000, k)); err != nil {
			t.Fatal(err)
		}
		queries := []Query{lat}
		blob, err := rec.AppendFlowState(nil, queries, flow)
		if err != nil {
			t.Fatal(err)
		}
		back, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.RestoreFlowState(queries, flow, blob); err != nil {
			t.Fatalf("%d bits: %v", c.bits, err)
		}
		if again, err := back.AppendFlowState(nil, queries, flow); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("%d bits: hand-off round trip changed the blob (err %v)", c.bits, err)
		}
		codes := map[float64]bool{}
		for hop := 1; hop <= k; hop++ {
			phis := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
			want, err := rec.LatencyQuantiles(lat, flow, hop, phis...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.LatencyQuantiles(lat, flow, hop, phis...)
			if err != nil || !slices.Equal(got, want) || back.LatencySamples(lat, flow, hop) != rec.LatencySamples(lat, flow, hop) {
				t.Fatalf("%d bits hop %d: restored answers %v (err %v), want %v", c.bits, hop, got, err, want)
			}
			for _, v := range want {
				codes[v] = true
			}
		}
		if len(codes) < 3 {
			t.Fatalf("%d bits: the flow's quantiles take %d values; the case needs spread codes", c.bits, len(codes))
		}
	}
}

// FuzzFlowState: whatever bytes arrive as a flow's hand-off state,
// RestoreFlowState either refuses them, leaving the destination untouched,
// or yields a flow that (1) re-emits the very same bytes — the blob was one
// AppendFlowState could have written — and (2) keeps recording packets of
// the plan into a state that is again accepted. Seeds are every flow's
// blob of the raw reference Recording, the sketched reference blobs (all
// refused), every flow's blob of a raw Recording fed the longer stream
// whose stores travel as counts, and flowStateRows.
func FuzzFlowState(f *testing.F) {
	const flow = FlowKey(1)
	rec, queries, raw := referenceFlowStates(f, referencePkts)
	sketched := sketchedFlowStates(f)
	_, _, folded := referenceFlowStates(f, foldedPkts)
	for _, blob := range slices.Concat(raw, sketched, folded) {
		f.Add(blob)
	}
	for _, row := range flowStateRows(f, queries, raw[0]) {
		f.Add(row.blob)
	}
	more := cloneWorkload(f, rec.engine, 151, 1, 64, 6)
	f.Fuzz(func(t *testing.T, blob []byte) {
		restore := func(data []byte) (*Recording, error) {
			dst, err := NewRecording(rec.engine)
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
		answerLatency(t, dst, queries, flow)
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
	rec, err := NewRecording(eng)
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
	dst, err := NewRecording(eng)
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
		dst, err := NewRecording(eng)
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
