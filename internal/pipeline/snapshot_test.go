package pipeline

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// recording resolves a flow to the snapshot's clone of its shard, by the
// sink's own routing function.
func (s *Snapshot) recording(flow core.FlowKey) *core.Recording {
	return s.recs[hash.ShardOf(uint64(flow), uint64(len(s.recs)))]
}

// trackedFlows sums live flows across the snapshot's shards.
func (s *Snapshot) trackedFlows() int {
	n := 0
	for _, rec := range s.recs {
		n += rec.TrackedFlows()
	}
	return n
}

// TestSnapshotMidStreamMatchesPrefix checks the snapshot completeness
// guarantee: a snapshot taken after Ingest+Flush from the ingesting
// goroutine answers exactly like a serial recording of the packets
// ingested so far — and stays frozen while ingestion continues.
func TestSnapshotMidStreamMatchesPrefix(t *testing.T) {
	eng, path, lat, util := testPlan(t, 501)
	const (
		nFlows = 16
		k      = 6
	)
	pkts := encodeWorkload(eng, 13, nFlows, 400, k)
	base := hash.Seed(0xABAD)
	half := len(pkts) / 2

	sink, err := NewSink(eng, Config{Shards: 4, BatchSize: 32, SketchItems: 24, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	sink.Ingest(pkts[:half])
	sink.Flush()
	snap := sink.Snapshot()

	halfSerial, err := core.NewRecordingSeeded(eng, 24, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := halfSerial.RecordBatch(pkts[:half]); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		compareFlow(t, 4, halfSerial, snap.recording(flow), flow, k, path, lat, util)
	}

	// Ingest the rest; the earlier snapshot must not move.
	sink.Ingest(pkts[half:])
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	before := snap.trackedFlows()
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		if got, want := snap.recording(flow).LatencySamples(lat, flow, 1), halfSerial.LatencySamples(lat, flow, 1); got != want {
			t.Fatalf("flow %d: snapshot samples moved to %d (want %d) after further ingest", flow, got, want)
		}
	}
	if snap.trackedFlows() != before {
		t.Fatal("snapshot flow count moved after further ingest")
	}

	fullSerial, err := core.NewRecordingSeeded(eng, 24, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := fullSerial.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		compareFlow(t, 4, fullSerial, sink.Recording(flow), flow, k, path, lat, util)
	}
}

// TestSnapshotConcurrentWithIngest is the -race acceptance test: readers
// take snapshots and run every query kind while the ingester keeps
// feeding the sink. Per-flow sample counts must be monotone across a
// reader's successive snapshots (each snapshot reflects a prefix of the
// per-shard stream, and prefixes only grow).
func TestSnapshotConcurrentWithIngest(t *testing.T) {
	eng, path, lat, util := testPlan(t, 601)
	const (
		nFlows  = 16
		k       = 6
		readers = 3
	)
	pkts := encodeWorkload(eng, 17, nFlows, 500, k)
	sink, err := NewSink(eng, Config{Shards: 4, BatchSize: 16, SketchItems: 24, Base: 0xF00D})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := make(map[core.FlowKey]int, nFlows)
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := sink.Snapshot()
				for f := 0; f < nFlows; f++ {
					flow := core.FlowKey(uint64(f)*2654435761 + 1)
					n := 0
					for hop := 1; hop <= k; hop++ {
						n += snap.recording(flow).LatencySamples(lat, flow, hop)
						if snap.recording(flow).LatencySamples(lat, flow, hop) > 0 {
							if _, err := snap.recording(flow).LatencyQuantile(lat, flow, hop, 0.5); err != nil {
								t.Errorf("reader %d: quantile: %v", r, err)
								return
							}
						}
					}
					snap.recording(flow).Path(path, flow)
					snap.recording(flow).UtilSeries(util, flow)
					if n < last[flow] {
						t.Errorf("reader %d flow %d: samples went backwards %d -> %d", r, flow, last[flow], n)
						return
					}
					last[flow] = n
				}
			}
		}(r)
	}

	for off := 0; off < len(pkts); off += 64 {
		end := min(off+64, len(pkts))
		sink.Ingest(pkts[off:end])
	}
	sink.Flush()
	close(done)
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// A snapshot after Close equals the sink's own (drained) answers.
	snap := sink.Snapshot()
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		compareFlow(t, 4, sink.Recording(flow), snap.recording(flow), flow, k, path, lat, util)
	}
}

// TestSnapshotFlowsMatchesRebuilt pins the flow-scoped snapshot against
// an independent oracle: at several prefixes of a stream, for shards
// {1,2,4} and raw / KLL storage, SnapshotFlows(subset)
// answers every listed flow exactly like a serial Recording rebuilt from
// scratch from the same prefix, reports every other flow as untracked,
// and — with most shards contributing nothing — still routes, merges and
// counts correctly. Sink.Flows must list what the rebuilt Recording
// tracks.
func TestSnapshotFlowsMatchesRebuilt(t *testing.T) {
	const (
		nFlows = 12
		k      = 6
	)
	flowKey := func(f int) core.FlowKey { return core.FlowKey(uint64(f)*2654435761 + 1) }
	for _, v := range []struct {
		name          string
		sketch        int
		flowsInSubset []int
	}{
		{name: "raw", flowsInSubset: []int{3}},
		{name: "sketched", sketch: 24, flowsInSubset: []int{0, 5, 7}},
	} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", v.name, shards), func(t *testing.T) {
				eng, path, lat, util := testPlan(t, 701)
				pkts := encodeWorkload(eng, 29, nFlows, 120, k)
				cfg := Config{Shards: shards, BatchSize: 16, SketchItems: v.sketch, Base: 0x5EED}
				sink, err := NewSink(eng, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sink.Close()
				rebuilt := func(n int) *core.Recording {
					rec, err := NewRecording(eng, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := rec.RecordBatch(pkts[:n]); err != nil {
						t.Fatal(err)
					}
					return rec
				}
				// An unknown flow rides along in every request.
				asked := []core.FlowKey{0xDEAD0000BEEF}
				for _, f := range v.flowsInSubset {
					asked = append(asked, flowKey(f))
				}
				fed := 0
				for _, n := range []int{0, 5, 100, 101, 700, len(pkts)} {
					sink.Ingest(pkts[fed:n])
					sink.Flush()
					fed = n

					ref := rebuilt(n)
					if got, want := sink.Flows(), ref.Flows(); !slices.Equal(got, want) {
						t.Fatalf("prefix %d: Flows() = %v, rebuilt tracks %v", n, got, want)
					}
					snap := sink.SnapshotFlows(asked)
					if got := len(snap.recs); got != shards {
						t.Fatalf("prefix %d: scoped snapshot has %d shard slots, want %d", n, got, shards)
					}
					tracked := 0
					for _, flow := range asked {
						if ref.HasFlow(flow) {
							tracked++
						}
						compareFlow(t, shards, ref, snap.recording(flow), flow, k, path, lat, util)
					}
					if got := snap.trackedFlows(); got != tracked {
						t.Fatalf("prefix %d: scoped snapshot tracks %d flows, want %d", n, got, tracked)
					}
					// A flow outside the list reads as untracked, wherever it lives.
					if other := flowKey(1); snap.recording(other).HasFlow(other) {
						t.Fatalf("prefix %d: unlisted flow %d visible in a scoped snapshot", n, other)
					}

					// Merged over a second scoped snapshot: same answers.
					merged, err := sink.SnapshotFlows(asked).Merged()
					if err != nil {
						t.Fatalf("prefix %d: merging a scoped snapshot: %v", n, err)
					}
					for _, flow := range asked {
						compareFlow(t, shards, ref, merged, flow, k, path, lat, util)
					}
					if got := merged.TrackedFlows(); got != tracked {
						t.Fatalf("prefix %d: merged scoped snapshot tracks %d flows, want %d", n, got, tracked)
					}
				}
				// An empty, non-nil list asks nobody and yields an empty view.
				if got := sink.SnapshotFlows([]core.FlowKey{}).trackedFlows(); got != 0 {
					t.Fatalf("empty flow list: snapshot tracks %d flows", got)
				}
			})
		}
	}
}
