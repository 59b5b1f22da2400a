package pipeline

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// TestWithFlowSeesDispatchedIngest: the callback must observe everything
// Ingest dispatched before the call (the worker drains its queue first),
// and its mutations — eviction here, the hand-off drain in production —
// must be visible to later snapshots.
func TestWithFlowSeesDispatchedIngest(t *testing.T) {
	eng, _, _, _ := testPlan(t, 303)
	const (
		nFlows      = 8
		pktsPerFlow = 120
		k           = 6
	)
	pkts := encodeWorkload(eng, 11, nFlows, pktsPerFlow, k)
	sink, err := NewSink(eng, Config{Shards: 3, BatchSize: 32, Base: hash.Seed(0xF00)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.Ingest(pkts)

	flow := pkts[0].Flow
	// No Flush/Barrier in between: WithFlow itself must drain the queue.
	var sawPackets bool
	err = sink.WithFlow(flow, func(rec *core.Recording) error {
		if !rec.HasFlow(flow) {
			return errors.New("flow invisible to WithFlow after Ingest")
		}
		sawPackets = true
		rec.Evict(flow)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawPackets {
		t.Fatal("callback never ran")
	}
	// The eviction happened on the live shard recording, not a clone.
	merged, err := sink.Snapshot().Merged()
	if err != nil {
		t.Fatal(err)
	}
	if merged.HasFlow(flow) {
		t.Fatal("WithFlow eviction invisible to a later snapshot")
	}
	if got := len(merged.Flows()); got != nFlows-1 {
		t.Fatalf("%d flows after evicting one of %d", got, nFlows)
	}
}

// TestWithFlowErrorAndClose: callback errors propagate, and WithFlow
// still works after Close (it runs the callback directly on the drained
// shard).
func TestWithFlowErrorAndClose(t *testing.T) {
	eng, _, _, _ := testPlan(t, 304)
	pkts := encodeWorkload(eng, 13, 4, 60, 6)
	sink, err := NewSink(eng, Config{Shards: 2, Base: hash.Seed(0xF01)})
	if err != nil {
		t.Fatal(err)
	}
	sink.Ingest(pkts)

	boom := errors.New("boom")
	if err := sink.WithFlow(pkts[0].Flow, func(*core.Recording) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error lost: %v", err)
	}

	sink.Close()
	flow := pkts[1].Flow
	var present bool
	if err := sink.WithFlow(flow, func(rec *core.Recording) error {
		present = rec.HasFlow(flow)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !present {
		t.Fatal("closed-sink WithFlow lost the flow")
	}
}
