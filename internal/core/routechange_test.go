package core

import (
	"testing"

	"repro/internal/coding"
	"repro/internal/hash"
)

// TestRouteChangeDetection exercises §7's multipath/flowlet scenario at
// the Recording level: decode a path, move the flow to a different
// equal-length path, and observe the inconsistency count cross the §7
// threshold (3 above its pre-change level) without false alarms
// beforehand. Once the path has decoded, only the packets in the
// route-check sample (checkShift) are checked, so detection is counted in
// sampled packets.
func TestRouteChangeDetection(t *testing.T) {
	const k = 6
	uni := testUniverse(k, 100)
	pathA := uni[:k]
	pathB := append(append([]uint64(nil), uni[:k-2]...), uni[50], uni[51])

	cfg, err := DefaultPathConfig(8, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPathQuery("path", cfg, 1, 77, uni)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile([]Query{q}, 8, 78)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(e)
	if err != nil {
		t.Fatal(err)
	}
	flow := FlowKey(5)
	rng := hash.NewRNG(80)

	send := func(path []uint64) uint64 {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= k; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{SwitchID: path[hop-1]})
		}
		if err := rec.Record(flow, k, pkt, digest); err != nil {
			t.Fatal(err)
		}
		return pkt
	}

	// Phase 1: decode path A; no route change may be reported.
	for i := 0; i < 10000; i++ {
		send(pathA)
		if _, done := rec.Path(q, flow); done {
			break
		}
	}
	if _, done := rec.Path(q, flow); !done {
		t.Fatal("setup: path A not decoded")
	}
	preInconsistent := rec.PathInconsistencies(q, flow)
	if preInconsistent >= 3 {
		t.Fatal("false route change on a stable path")
	}

	// Phase 2: the flow re-routes; inconsistencies must accumulate fast.
	g := hash.NewGlobal(hash.Seed(77).Derive(hash.Seed(0).HashString("path")))
	sampledToDetect := 0
	for i := 0; i < 500<<checkShift; i++ {
		if g.Checked(send(pathB), checkShift) {
			sampledToDetect++
		}
		if rec.PathInconsistencies(q, flow) >= preInconsistent+3 {
			break
		}
	}
	if rec.PathInconsistencies(q, flow) < preInconsistent+3 {
		t.Fatal("route change never detected")
	}
	// With q=8 bits, each checked post-change packet touching a changed
	// hop is inconsistent w.p. ~1-2^-8; detection should take a handful
	// of sampled packets, not hundreds.
	if sampledToDetect > 50 {
		t.Fatalf("detection took %d sampled packets; expected a handful", sampledToDetect)
	}
}

func TestRouteChangedRequiresDecodedPath(t *testing.T) {
	uni := testUniverse(5, 50)
	cfg, _ := DefaultPathConfig(8, 1, 5)
	q, _ := NewPathQuery("p", cfg, 1, 81, uni)
	e, _ := Compile([]Query{q}, 8, 82)
	rec, _ := NewRecording(e)
	if rec.PathInconsistencies(q, FlowKey(1)) != 0 {
		t.Fatal("unknown flow must report zero inconsistencies")
	}
}

// decodedPathFlow records flow 1 of a one-query plan (a k-hop path query
// under the given layering, master seed 91, name "path") until its path
// decodes, and returns the recording, the query and an encoder of further
// packets on the same path.
func decodedPathFlow(t *testing.T, k int, layering coding.Layering) (*Recording, *PathQuery, func() PacketDigest) {
	t.Helper()
	uni := testUniverse(k, 64)
	q, err := NewPathQuery("path", coding.Config{Bits: 8, Mode: coding.ModeHashed, Instances: 1, Layering: layering}, 1, 91, uni)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile([]Query{q}, 8, 92)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(e)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewRNG(93)
	next := func() PacketDigest {
		pkt := PacketDigest{Flow: 1, PktID: rng.Uint64(), PathLen: k}
		for hop := 1; hop <= k; hop++ {
			pkt.Digest = e.EncodeHopValues(pkt.PktID, hop, pkt.Digest, &HopValues{SwitchID: uni[hop-1]})
		}
		return pkt
	}
	for i := 0; i < 10000; i++ {
		if err := rec.RecordBatch([]PacketDigest{next()}); err != nil {
			t.Fatal(err)
		}
		if _, done := rec.Path(q, 1); done {
			return rec, q, next
		}
	}
	t.Fatal("setup: path not decoded")
	return nil, nil, nil
}

// TestRouteCheckCountsSampledPackets: a decoded flow fed N corrupted
// packets counts exactly the sampled ones as inconsistent. The sample is
// recomputed here from the query's own hash family (seed and name, as
// NewPathQuery derives it), not read back from the recording. Under pure
// Baseline layering every packet has an acting hop, so every checked
// corrupted packet contradicts the decoded path.
func TestRouteCheckCountsSampledPackets(t *testing.T) {
	const n = 4096
	rec, q, next := decodedPathFlow(t, 5, coding.PureBaseline())
	if got := rec.PathInconsistencies(q, 1); got != 0 {
		t.Fatalf("%d inconsistencies on a stable path", got)
	}
	g := hash.NewGlobal(hash.Seed(91).Derive(hash.Seed(0).HashString("path")))
	batch := make([]PacketDigest, n)
	sampled := 0
	for i := range batch {
		batch[i] = next()
		batch[i].Digest ^= 1
		if g.Checked(batch[i].PktID, checkShift) {
			sampled++
		}
	}
	if err := rec.RecordBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := rec.PathInconsistencies(q, 1); got != sampled {
		t.Fatalf("%d corrupted packets counted %d inconsistencies; %d of them are sampled", n, got, sampled)
	}
	if lo, hi := n>>checkShift*3/4, n>>checkShift*5/4; sampled < lo || sampled > hi {
		t.Fatalf("%d of %d packets sampled, want about 1 in %d", sampled, n, 1<<checkShift)
	}
}

// TestDecodedFlowRecordZeroAlloc: recording into a flow whose path has
// decoded, checked packets and skipped ones alike, allocates nothing.
func TestDecodedFlowRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations land in AllocsPerRun")
	}
	rec, _, next := decodedPathFlow(t, 6, coding.MultiLayer(6, true))
	batch := make([]PacketDigest, 256)
	for i := range batch {
		batch[i] = next()
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := rec.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("recording into a decoded flow: %v allocations a batch, want 0", allocs)
	}
}
