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
// shard's lease. The lease marks each such flow as shared, and a shared
// flow is not written while it is: the worker's next packet for it swaps
// in a private copy first, as does a write through the snapshot. The
// worker's copy keeps appending to the two per-packet series (raw latency
// samples, util values) past the snapshot's samples, in the same backing
// arrays; any other copy holds them as length-and-capacity-clamped
// prefixes, so its appends reallocate. Everything mutated in place (path
// decoders still decoding, KLL sketches) each copy gets its own. Taking a
// snapshot therefore costs 16 bytes of run per flow it covers, never
// anything in the packets the flows carried; and while it is held, the
// worker pays one copy of each flow it records into.
//
// Close ends that cost: it hands each shard's lease back to its worker,
// which makes every flow no other snapshot holds the worker's alone
// again, to write in place. After Close the snapshot, the Recording
// Merged returned and any Recording that merged it must not be used;
// Clone that Recording before Close to keep it, which pins its leases so
// that Close gives nothing back. A snapshot never closed costs the worker
// what a held one does, for good.
//
// A flow-scoped snapshot (Sink.SnapshotFlows) covers only the flows it
// was asked for; any other flow reads as untracked, and a shard that
// owns none of them contributes an empty Recording.
//
// Every answer method of the merged Recording only reads it: any number
// of goroutines may query it at once, and the same question asked twice
// gets the same answer.
type Snapshot struct {
	sink *Sink
	recs []*core.Recording
	// leases are the shards' leases by shard, nil for a shard not asked;
	// each is the run that indexes its shard's flows in recs or in the
	// Recording Merged made of them. Close sets it to nil.
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

// Close gives the snapshot's leases back to the shard workers, each at a
// batch boundary on its worker goroutine (after Sink.Close, inline), and
// returns once all have taken them. It must follow every use of the
// snapshot and of what Merged returned (see Snapshot); a second Close does
// nothing.
func (s *Snapshot) Close() {
	leases := s.leases
	if leases == nil {
		return
	}
	s.leases = nil
	s.sink.readShards(
		func(i int) bool { return leases[i] != nil },
		func(i int, rec *core.Recording) { rec.Release(leases[i]) })
}
