package pipeline

import "repro/internal/core"

// Snapshot is a point-in-time view of the sink's per-shard Recordings,
// answerable (through Merged) while ingestion keeps running. Each shard
// worker clones its Recording (core.Recording.Clone) at a batch boundary,
// so a snapshot is internally consistent per flow (never mid-packet) and
// reflects every packet dispatched to the workers before Snapshot was
// called from the ingesting goroutine (Flush first to include buffered
// packets). Packets ingested after the call may or may not be visible.
//
// What a snapshot shares with the live shard: every flow's state it
// covers, whole. The clone marks each such flow as shared, and a shared
// flow is never written again: the worker's next packet for it swaps in a
// private copy first, as does a write through the snapshot. The worker's
// copy keeps appending to the two per-packet series (raw latency samples,
// util values) past the snapshot's samples, in the same backing arrays;
// any other copy holds them as length-and-capacity-clamped prefixes, so
// its appends reallocate. Everything mutated in place (path decoders
// still decoding, KLL sketches) each copy gets its own. Taking a snapshot
// therefore costs one map entry per flow it covers, and the worker one
// copy of each flow it records into afterwards, never anything in the
// packets they carried.
//
// A flow-scoped snapshot (Sink.SnapshotFlows) covers only the flows it
// was asked for; any other flow reads as untracked, and a shard that
// owns none of them contributes an empty Recording.
//
// Every answer method of the merged Recording only reads it: any number
// of goroutines may query it at once, and the same question asked twice
// gets the same answer.
type Snapshot struct {
	recs []*core.Recording
}

// Merged folds the snapshot's per-shard Recordings into one, consuming
// the snapshot — the form to ship to a single downstream store. Shards
// hold disjoint flows, so the merge is pure adoption; a shard that a
// flow-scoped snapshot did not ask is an empty Recording and adds
// nothing. Afterwards the snapshot holds the one merged Recording.
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
