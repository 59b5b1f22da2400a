package pipeline

import "repro/internal/core"

// Snapshot is a point-in-time view of the sink's per-shard Recordings,
// answerable (through Merged) while ingestion keeps running. Each shard
// worker leases its Recording's flows (core.Recording.Lease) at a batch
// boundary, so a snapshot is internally consistent per flow (never
// mid-packet) and reflects every packet dispatched to the workers before
// Snapshot was called from the ingesting goroutine (Flush first to include
// buffered packets). Packets ingested after the call may or may not be
// visible.
//
// What a snapshot shares with the live shard: every flow's state it
// covers, whole, indexed by one sorted run per shard that is also the
// shard's lease. The lease holds each such flow, and a held flow is not
// written: the worker's next packet for it swaps in a private copy first.
// The snapshot only reads; the worker is each flow's one writer. Its copy
// keeps appending to a util series past the snapshot's values, in the
// same backing array, and a latency store's histogram is shared until the
// copy's next fold, which counts into a copy of it. What is mutated in
// place (path decoders still decoding) the copy gets its own. Taking a
// snapshot therefore costs at most 4 bytes of run per flow it covers (one
// block offset), never anything in the packets the flows carried; and
// while it is held, the worker pays one copy of each flow it records into.
//
// Close ends that cost: it releases each shard's lease on the caller's
// goroutine, which makes every flow no other snapshot holds the worker's
// alone again, to write in place, and gives the lease's run back to the
// shard's Recording, whose next lease refills it: a snapshot whose flows
// fit a closed one's run allocates none. After Close the snapshot and the
// Recording Merged returned must not be used. A snapshot never closed
// costs the worker what a held one does, for good.
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
	// leases are the shards' leases by shard, nil for a shard not asked;
	// each is the run that indexes its shard's flows in recs or in the
	// Recording Merged made of them.
	leases []*core.Lease
}

// Merged folds the snapshot's per-shard Recordings into one, consuming
// the snapshot — the form to ship to a single downstream store. Shards
// hold disjoint flows, so the merge is pure adoption of each shard's run;
// a shard that a flow-scoped snapshot did not ask is an empty Recording
// and adds nothing. Afterwards the snapshot holds the one merged
// Recording.
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

// Close releases the snapshot's leases, on the caller's goroutine, without
// waiting for any shard worker. It must follow every use of the snapshot
// and of what Merged returned (see Snapshot); a second Close does
// nothing.
func (s *Snapshot) Close() {
	for _, l := range s.leases {
		if l != nil {
			l.Release()
		}
	}
}
