package core

import (
	"testing"

	"repro/internal/hash"
)

// TestRouteChangeDetection exercises §7's multipath/flowlet scenario at
// the Recording level: decode a path, move the flow to a different
// equal-length path, and observe the inconsistency count cross the §7
// threshold (3 above its pre-change level) without false alarms
// beforehand.
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

	send := func(path []uint64) {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= k; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{SwitchID: path[hop-1]})
		}
		if err := rec.Record(flow, k, pkt, digest); err != nil {
			t.Fatal(err)
		}
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
	packetsToDetect := 0
	for i := 0; i < 500; i++ {
		send(pathB)
		packetsToDetect++
		if rec.PathInconsistencies(q, flow) >= preInconsistent+3 {
			break
		}
	}
	if rec.PathInconsistencies(q, flow) < preInconsistent+3 {
		t.Fatal("route change never detected")
	}
	// With q=8 bits, each post-change packet touching a changed hop is
	// inconsistent w.p. ~1-2^-8; detection should take a handful of
	// packets, not hundreds.
	if packetsToDetect > 50 {
		t.Fatalf("detection took %d packets; expected a handful", packetsToDetect)
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
