package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// flowStateDigest hashes, in flow order, the hand-off blob of every flow
// of a Recording fed the five-query plan's reference stream.
func flowStateDigest(t *testing.T, sketchItems, winBuckets int, winSpan uint64) string {
	t.Helper()
	eng, path, lat, util, freq, cnt := combinedTestPlan(t, 139)
	rec, err := NewRecordingSeeded(eng, sketchItems, 0xB10B)
	if err != nil {
		t.Fatal(err)
	}
	rec.WindowBuckets, rec.WindowSpan = winBuckets, winSpan
	if err := rec.RecordBatch(cloneWorkload(t, eng, 149, 5, 3000, 6)); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	arena := []byte("earlier states")
	for _, f := range rec.Flows() {
		blob, err := rec.AppendFlowState(nil, []Query{path, lat, util, freq, cnt}, f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
		// The blob is encoded where it lands: behind other bytes it is the
		// same blob, and they are untouched.
		at := len(arena)
		if arena, err = rec.AppendFlowState(arena, []Query{path, lat, util, freq, cnt}, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(arena[at:], blob) || !bytes.HasPrefix(arena, []byte("earlier states")) {
			t.Fatalf("flow %d: state appended behind %d bytes differs from the state appended to nil", f, at)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestFlowStateBlobsUnchanged pins AppendFlowState's bytes to what the
// uint64-per-sample Recording before the code-width store produced for
// the same states (digests taken from that tree): the hand-off format is
// a wire format between fleet members of different builds.
func TestFlowStateBlobsUnchanged(t *testing.T) {
	want := map[string]string{
		"raw":      "cc84251fde44f4be",
		"sketched": "390da681b65839d7",
		"windowed": "06fb68e778336b81",
	}
	for _, v := range storageVariants {
		if v.latBits != 8 {
			continue
		}
		if got := flowStateDigest(t, v.sketchItems, v.winBuckets, v.winSpan); got != want[v.name] {
			t.Errorf("%s: flow-state blobs hash to %s, want %s", v.name, got, want[v.name])
		}
	}
}

// flowStateSections splits a blob into its sections' raw bytes, keyed by
// query name (test-side parse of the layout in handoff.go).
func flowStateSections(t *testing.T, blob []byte) map[string][]byte {
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

// TestShortenedRouteFlowHandsOff: a flow whose route shortens (§7) between
// the packet that starts its path decoder and the first packet that
// reaches its latency query still states one hop count in every section —
// the per-hop slots are sized by the flow's path length, not by whichever
// packet first reached them — so the state RestoreFlowState insists on is
// the state record builds, and the flow survives a resize.
func TestShortenedRouteFlowHandsOff(t *testing.T) {
	const flow = FlowKey(1)
	eng, path, lat, util, freq, cnt := combinedTestPlan(t, 139)
	queries := []Query{path, lat, util, freq, cnt}
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
	for _, q := range []Query{path, lat, freq} {
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
