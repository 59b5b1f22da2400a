package core

import (
	"testing"

	"repro/internal/hash"
)

func TestEvictUnknownFlowHarmless(t *testing.T) {
	uni := testUniverse(5, 50)
	cfg, _ := DefaultPathConfig(8, 1, 5)
	q, _ := NewPathQuery("p", cfg, 1, 95, uni)
	e, _ := Compile([]Query{q}, 8, 96)
	rec, _ := NewRecording(e)
	rec.Evict(FlowKey(42)) // no state; must not panic
	if rec.TrackedFlows() != 0 {
		t.Fatal("phantom flow appeared")
	}
}

func TestUnlimitedFlowsByDefault(t *testing.T) {
	uni := testUniverse(3, 30)
	cfg, _ := DefaultPathConfig(8, 1, 3)
	q, _ := NewPathQuery("p", cfg, 1, 98, uni)
	e, _ := Compile([]Query{q}, 8, 99)
	rec, _ := NewRecording(e)
	rng := hash.NewRNG(101)
	for f := 1; f <= 100; f++ {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= 3; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{SwitchID: uni[hop-1]})
		}
		if err := rec.Record(FlowKey(f), 3, pkt, digest); err != nil {
			t.Fatal(err)
		}
	}
	if rec.TrackedFlows() != 100 {
		t.Fatalf("a Recording evicts only when told to; tracking %d of 100", rec.TrackedFlows())
	}
}
