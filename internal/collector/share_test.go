package collector

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// These tests guard what the read path now rests on: a snapshot shares
// the live shard's flow states, and the worker copies a flow before its
// next write to it while the snapshot is open, keeping the append-only
// series' arrays (core.Recording.Lease); and a flow-scoped snapshot costs
// in the flows asked for. The independence of clones from their origin
// and from each other is pinned one layer down (core:
// TestCloneAppendsStayPrivate, TestClonePrefixProperty,
// TestHeldCloneRacesOwnerTail), and so is what a snapshot costs the writer
// (TestOwnerWriteAfterCloneCopiesOnce, TestLeaseSharesOnlyItsFlows) and,
// in the pipeline, once a snapshot is closed
// (TestClosedSnapshotCostsWriterNothing); lease_test.go pins that the
// /snapshot handler gives its snapshot back.

// TestHeldSnapshotsSurviveIngest is the sharing invariant under -race:
// readers take snapshots — full and flow-scoped — render their answers,
// then HOLD them while the ingester appends enough to double the shared
// series several times over, and render again. The two renderings must
// be byte-identical (raw storage: answering only reads), and the race
// detector must see no access in common between the worker's appends and
// the readers' reads of the shared arrays.
func TestHeldSnapshotsSurviveIngest(t *testing.T) {
	tb := mustTestbench(t, 17)
	const (
		nFlows  = 4
		perFlow = 64 // packets per flow per round
		rounds  = 64
		warm    = 4  // rounds ingested before the first snapshot: ~50 samples per (flow, hop)
		hold    = 28 // rounds a snapshot is held across: ≥ 3 doublings of every series it shares
		readers = 3
	)
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 2, BatchSize: 32, Base: tb.Base})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	streams := make([][]core.PacketDigest, nFlows)
	for f := range streams {
		streams[f] = tb.FlowBatch(1, f, perFlow*rounds, nil, nil)
	}
	all := tb.Flows(1, nFlows)
	scoped := []core.FlowKey{all[1], all[2]}

	// roundDone[r] closes once round r is ingested and flushed; cur is the
	// number of rounds finished.
	roundDone := make([]chan struct{}, rounds)
	for i := range roundDone {
		roundDone[i] = make(chan struct{})
	}
	var cur, held atomic.Int64
	ingest := func(from, to int) {
		for r := from; r < to; r++ {
			for f := range streams {
				sink.Ingest(streams[f][r*perFlow : (r+1)*perFlow])
			}
			sink.Flush()
			cur.Add(1)
			close(roundDone[r])
		}
	}
	ingest(0, warm)

	// first is done once every reader holds its first snapshot; the
	// ingester waits for it, so each reader holds at least one snapshot
	// across `hold` rounds however the goroutines are scheduled.
	var wg, first sync.WaitGroup
	first.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				at := int(cur.Load())
				if at+hold >= rounds {
					return
				}
				flows := all
				snap := sink.Snapshot()
				if (i+r)%2 == 1 {
					flows = scoped
					snap = sink.SnapshotFlows(flows)
				}
				merged, err := snap.Merged()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					if i == 0 {
						first.Done()
					}
					return
				}
				before := answersJSON(t, Answers(merged, tb.Queries(), flows))
				if i == 0 {
					first.Done()
				}
				<-roundDone[at+hold]
				if after := answersJSON(t, Answers(merged, tb.Queries(), flows)); !bytes.Equal(before, after) {
					t.Errorf("reader %d: a held snapshot's answers moved while ingest continued:\nbefore: %.300s\nafter:  %.300s", r, before, after)
					return
				}
				held.Add(1)
			}
		}(r)
	}
	first.Wait()
	ingest(warm, rounds)
	wg.Wait()
	if n := held.Load(); n < readers {
		t.Fatalf("only %d snapshots were held across ingest by %d readers", n, readers)
	}
	t.Logf("%d snapshots held across %d rounds of ingest each", held.Load(), hold)

	// The final state is still exactly the serial one.
	sink.Barrier()
	ref, err := core.NewRecordingSeeded(tb.Engine, 0, tb.Base)
	if err != nil {
		t.Fatal(err)
	}
	for f := range streams {
		if err := ref.RecordBatch(streams[f]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := SnapshotAnswers(sink.Snapshot(), tb.Queries(), all)
	if err != nil {
		t.Fatal(err)
	}
	if want := Answers(ref, tb.Queries(), all); !bytes.Equal(answersJSON(t, got), answersJSON(t, want)) {
		t.Fatal("final snapshot diverges from the serial reference")
	}
}

// TestPointQueryAllocationIsFlowScoped is the regression guard for "a
// snapshot costs O(flows asked for), not O(packets ingested)": the bytes
// one flow-scoped snapshot plus its Answers allocate must not follow the
// sink's size. The asked flow holds the same packets in both sinks; the
// second sink holds 8× the packets overall (twice the flows, four times
// the packets each). The two measurements must be within 2× of each
// other and under a fixed budget — a deep copy of either sink would
// exceed the budget many times over.
func TestPointQueryAllocationIsFlowScoped(t *testing.T) {
	tb := mustTestbench(t, 19)
	const (
		askedPkts = 512
		budget    = 64 << 10
	)
	asked := tb.FlowKeyFor(1, 0)
	measure := func(otherFlows, pktsPerOther int) uint64 {
		sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 2, Base: tb.Base})
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		sink.Ingest(tb.FlowBatch(1, 0, askedPkts, nil, nil))
		var pkts []core.PacketDigest
		vals := make([]core.HopValues, pktsPerOther)
		for f := 1; f <= otherFlows; f++ {
			pkts = tb.FlowBatch(1, f, pktsPerOther, pkts, vals)
			sink.Ingest(pkts)
		}
		sink.Barrier()
		query := func() {
			if _, err := SnapshotAnswers(sink.SnapshotFlows([]core.FlowKey{asked}), tb.Queries(), []core.FlowKey{asked}); err != nil {
				t.Fatal(err)
			}
		}
		query() // warm: first-use allocations are not the query's
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		query()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	small := measure(16, 512)
	large := measure(32, 2048)
	t.Logf("one-flow snapshot+answers: %d B with %d packets held, %d B with %d", small, askedPkts+16*512, large, askedPkts+32*2048)
	if small > budget || large > budget {
		t.Fatalf("one-flow query allocated %d B / %d B, budget %d B", small, large, budget)
	}
	if large >= 2*small {
		t.Fatalf("one-flow query allocation follows the sink's size: %d B at N, %d B at 8N", small, large)
	}
}
