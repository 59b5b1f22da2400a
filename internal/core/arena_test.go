package core

import (
	"math"
	"testing"
)

// Test access to a recording's arena.

// states returns the state of every flow r records.
func (r *Recording) states() map[FlowKey]flowState {
	out := map[FlowKey]flowState{}
	for _, f := range r.Flows() {
		out[f], _ = r.find(f)
	}
	return out
}

// blockOf returns the offset of the block r's table gives flow.
func (r *Recording) blockOf(flow FlowKey) uint32 {
	fs, ok := r.find(flow)
	if !ok {
		panic("not tracked")
	}
	return fs.off
}

// holdsAt returns the hold count of r's block at off.
func (r *Recording) holdsAt(off uint32) uint32 { return holds(r.flows.block(off)) }

// stateOf returns a tracked flow's state ready to write to, as RecordBatch
// takes it: a held block is copied first.
func (r *Recording) stateOf(flow FlowKey) flowState {
	fs, err := r.flows.writable(flow, 0)
	if err != nil {
		panic(err)
	}
	return fs
}

// storeOf is Recording.store with a state of its own.
func (r *Recording) storeOf(q *LatencyQuery, flow FlowKey, hop int) (latStore, bool) {
	return r.store(new(flowState), q, flow, hop)
}

// TestBlockReclamation pins when the arena reuses a block a lease held.
// A Lease of every flow, then a write to each, copies every flow to a
// fresh block; the view still answers as at the Lease while new cold
// flows arrive, and once it is released the next as many cold flows
// reuse the replaced blocks, so the pages do not grow, and the owner
// answers byte for byte as a Recording never leased. A flow evicted while
// a lease holds it, as a hand-off's export does during a snapshot, is
// still answered by the view, and its block is reused only after Release.
func TestBlockReclamation(t *testing.T) {
	eng, path, lat := testbenchPlan(t, 101)
	queries := []Query{path, lat}
	const flows = 64
	record := func(first FlowKey, from, to int, recs ...*Recording) {
		t.Helper()
		for f := first; f < first+flows; f++ {
			pkts := testbenchFlow(eng, f, uint64(f)*7, to)[from:]
			for _, r := range recs {
				if err := r.RecordBatch(pkts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	newRec := func() *Recording {
		r, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("replaced while leased", func(t *testing.T) {
		owner, twin := newRec(), newRec()
		record(1, 0, 40, owner, twin)
		view, l := owner.Lease(nil)
		want := recordingState(t, view, queries)
		record(1, 40, 48, owner, twin)
		record(1001, 0, 40, owner, twin)
		if got := recordingState(t, view, queries); got != want {
			t.Fatal("new flows recorded into blocks the view still reads")
		}
		pages := len(owner.flows.pages)
		l.Release()
		record(2001, 0, 40, owner, twin)
		if got := len(owner.flows.pages); got != pages {
			t.Errorf("%d pages after the released blocks could be reused, want %d", got, pages)
		}
		if recordingState(t, owner, queries) != recordingState(t, twin, queries) {
			t.Error("the owner's answers differ from a Recording never leased")
		}
	})

	t.Run("evicted while leased", func(t *testing.T) {
		const flow = FlowKey(7)
		owner := newRec()
		record(1, 0, 40, owner)
		view, l := owner.Lease(nil)
		want := recordingState(t, view, queries)
		evicted := owner.blockOf(flow)
		owner.Evict(flow)
		record(1001, 0, 40, owner)
		for f := FlowKey(1001); f < 1001+flows; f++ {
			if owner.blockOf(f) == evicted {
				t.Fatalf("flow %v took the block of a held flow the owner evicted", f)
			}
		}
		if got := recordingState(t, view, queries); got != want {
			t.Fatal("the view's answers changed after the owner evicted a flow it holds")
		}
		l.Release()
		record(2001, 0, 1, owner)
		if owner.blockOf(2001) != evicted {
			t.Error("the evicted block was not reused once its lease was released")
		}
	})
}

// TestLatencySamplesPastMaxInt pins what a store counted past math.MaxInt
// answers, which only a 32-bit platform reaches below the 2^62 cap:
// LatencySamples saturates at math.MaxInt, and quantiles rank the 64-bit
// count.
func TestLatencySamplesPastMaxInt(t *testing.T) {
	const flow = FlowKey(1)
	ref, queries, _ := referenceFlowStates(t, referencePkts)
	lat := queries[1].(*LatencyQuery)
	rec, err := NewRecording(ref.engine)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RestoreFlowState(queries, flow, oneStore(lat, histStore(10, 1, 1))); err != nil {
		t.Fatal(err)
	}
	st, _ := rec.storeOf(lat, flow, 1)
	sum := st.sum()
	sum.counts[0], sum.counts[1] = math.MaxInt, 2
	sum.n = uint64(math.MaxInt) + 2
	if got := rec.LatencySamples(lat, flow, 1); got != math.MaxInt {
		t.Errorf("%d samples, want math.MaxInt", got)
	}
	// The nearest-rank rule, sketch.RankIndex's, on the 64-bit count.
	n := uint64(math.MaxInt) + 2
	for phi, want := range map[float64]uint64{0: 0, 0.5: uint64(math.Ceil(0.5*float64(n))) - 1, 1: n - 1} {
		if got := rankIndex(phi, n); got != want {
			t.Errorf("rank at phi %v of MaxInt+2 samples: %d, want %d", phi, got, want)
		}
	}
	codes := make([]float64, 2)
	st.countQuantiles([]float64{0.5, 1}, codes)
	if codes[0] != 10 || codes[1] != 11 {
		t.Errorf("codes at phi 0.5, 1: %v, want [10 11]", codes)
	}
}
