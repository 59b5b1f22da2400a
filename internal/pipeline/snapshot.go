package pipeline

import (
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// Snapshot is a point-in-time view of the sink's per-shard Recordings:
// the answer methods of Sink, answerable while ingestion keeps running.
// Each shard worker clones its Recording (core.Recording.Clone) at a
// batch boundary, so a snapshot is internally consistent per flow (never
// mid-packet) and reflects every packet dispatched to the workers before
// Snapshot was called from the ingesting goroutine (Flush first to
// include buffered packets). Packets ingested after the call may or may
// not be visible.
//
// What a snapshot shares with the live shard: the backing arrays of the
// three per-packet series (raw latency samples, util values, count
// values), which it holds as length-and-capacity-clamped prefixes. That
// is safe because those series are append-only — the worker writes only
// past the prefix, and an append through the snapshot reallocates — so
// neither side can see the other's writes; everything that is mutated in
// place (path decoders, KLL and sliding-window sketches, Space Saving
// summaries) the snapshot owns outright. Taking one therefore costs in
// the flows it covers, not in the packets they carried.
//
// A flow-scoped snapshot (Sink.SnapshotFlows) covers only the flows it
// was asked for; any other flow reads as untracked, and a shard that
// owns none of them contributes an empty Recording.
//
// Every query method only reads the snapshot, with one exception: a
// latency quantile over sliding-window storage (sketch.SlidingKLL.
// Quantile) draws from that (flow, hop) store's RNG. Goroutines may
// therefore share a Snapshot freely unless the sink uses WindowBuckets
// and they ask latency quantiles of the same flow; give such readers a
// Snapshot each (and expect a repeated windowed quantile on one Snapshot
// to differ within the sketch's error, as the draws advance).
type Snapshot struct {
	recs []*core.Recording
}

// shardOf resolves a flow to the Recording of its shard by the sink's
// own routing function.
func (s *Snapshot) shardOf(flow core.FlowKey) *core.Recording {
	return s.recs[hash.ShardOf(uint64(flow), uint64(len(s.recs)))]
}

// Recording exposes the cloned Recording that owns a flow's state.
func (s *Snapshot) Recording(flow core.FlowKey) *core.Recording {
	return s.shardOf(flow)
}

// ShardCount returns the number of per-shard Recordings in the snapshot.
func (s *Snapshot) ShardCount() int { return len(s.recs) }

// TrackedFlows sums live flows across the snapshot's shards.
func (s *Snapshot) TrackedFlows() int {
	n := 0
	for _, rec := range s.recs {
		n += rec.TrackedFlows()
	}
	return n
}

// Merged folds the snapshot's per-shard Recordings into one, consuming
// the snapshot — the form to ship to a single downstream store. Shards
// hold disjoint flows, so the merge is pure adoption; a shard that a
// flow-scoped snapshot did not ask is an empty Recording and adds
// nothing. Afterwards the snapshot holds the one merged Recording and
// its per-flow accessors keep answering from it.
func (s *Snapshot) Merged() (*core.Recording, error) {
	merged := s.recs[0]
	for _, rec := range s.recs[1:] {
		if err := merged.Merge(rec); err != nil {
			return nil, err
		}
	}
	s.recs = []*core.Recording{merged}
	return merged, nil
}

// Path answers a path query for one flow.
func (s *Snapshot) Path(q *core.PathQuery, flow core.FlowKey) ([]uint64, bool) {
	return s.shardOf(flow).Path(q, flow)
}

// PathInconsistencies returns the route-change signal for one flow.
func (s *Snapshot) PathInconsistencies(q *core.PathQuery, flow core.FlowKey) int {
	return s.shardOf(flow).PathInconsistencies(q, flow)
}

// RouteChanged applies §7's route-change detection rule for one flow.
func (s *Snapshot) RouteChanged(q *core.PathQuery, flow core.FlowKey, threshold int) bool {
	return s.shardOf(flow).RouteChanged(q, flow, threshold)
}

// LatencyQuantile answers a latency query for one (flow, hop).
func (s *Snapshot) LatencyQuantile(q *core.LatencyQuery, flow core.FlowKey, hop int, phi float64) (float64, error) {
	return s.shardOf(flow).LatencyQuantile(q, flow, hop, phi)
}

// LatencySamples returns a (flow, hop)'s accumulated sample count.
func (s *Snapshot) LatencySamples(q *core.LatencyQuery, flow core.FlowKey, hop int) int {
	return s.shardOf(flow).LatencySamples(q, flow, hop)
}

// UtilSeries answers a per-packet utilization query for one flow.
func (s *Snapshot) UtilSeries(q *core.UtilQuery, flow core.FlowKey) []float64 {
	return s.shardOf(flow).UtilSeries(q, flow)
}

// FrequentValues answers a frequent-values query for one (flow, hop).
func (s *Snapshot) FrequentValues(q *core.FreqQuery, flow core.FlowKey, hop int, theta float64) []sketch.HeavyHitter {
	return s.shardOf(flow).FrequentValues(q, flow, hop, theta)
}

// FreqSamples returns a frequent-values query's sample count for a hop.
func (s *Snapshot) FreqSamples(q *core.FreqQuery, flow core.FlowKey, hop int) int {
	return s.shardOf(flow).FreqSamples(q, flow, hop)
}

// CountSeries answers a randomized-counting query for one flow.
func (s *Snapshot) CountSeries(q *core.CountQuery, flow core.FlowKey) []float64 {
	return s.shardOf(flow).CountSeries(q, flow)
}
