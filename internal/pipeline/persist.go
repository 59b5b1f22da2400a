package pipeline

import (
	"repro/internal/core"
)

// Persister is the sink's durability hook: it observes the two events a
// durable tier needs — the ingested stream and checkpoint barriers — and
// costs the hot path one atomic load per recorded chunk when none is
// attached. internal/segstore's Store is the production implementation:
// it appends each event to its log on the calling goroutine, under its
// own lock taken inside the shard's, and never calls back into the sink.
//
// Contract:
//
//   - PersistIngest runs for every run of packets bound for one shard (a
//     chunk, or what the shard's pending slab held), under that shard's
//     lock, just before they are recorded. Restricted to any one shard's
//     packets, the calls therefore give exactly that shard's record
//     order. There is no global order across connections, and recovery
//     needs none: routing is a pure function of the flow key, so replay
//     reproduces each shard's stream, and every flow's, verbatim. Calls
//     may be concurrent; the slice is valid only during the call.
//   - PersistCheckpoint runs on Sink.Checkpoint's goroutine, once per
//     shard, under the shard's lock after its slab is recorded, so the
//     stats describe a quiescent shard.
type Persister interface {
	PersistIngest(batch []core.PacketDigest)
	PersistCheckpoint(cp CheckpointStats)
}

// CheckpointStats is one shard's state at a checkpoint barrier.
type CheckpointStats struct {
	// Round numbers the Checkpoint call (1, 2, …); every shard reports
	// once per round, Shard of Shards.
	Round         uint64
	Shard, Shards int
	// Packets is the shard's accepted-packet counter, all of them
	// recorded; Flows its live flow count.
	Packets uint64
	Flows   int
}

// persistBox wraps the interface so it fits an atomic.Pointer.
type persistBox struct{ p Persister }

// SetPersister attaches (or, with nil, detaches) the sink's persister.
// Attach after any recovery replay — an attached persister would re-log
// every replayed batch — and before live ingestion starts. The pointer
// is atomic, so the swap itself is safe at any time; events racing the
// swap may go to either persister.
func (s *Sink) SetPersister(p Persister) {
	if p == nil {
		s.persist.Store(nil)
		return
	}
	s.persist.Store(&persistBox{p: p})
}

// persister returns the attached Persister, or nil.
func (s *Sink) persister() Persister {
	if b := s.persist.Load(); b != nil {
		return b.p
	}
	return nil
}

// Checkpoint runs a checkpoint barrier: under each shard's lock in turn
// it records the shard's slab and reports its CheckpointStats to the
// persister (if one is attached), so every packet ingested before the call
// is recorded AND its checkpoint record follows all of those packets'
// PersistIngest events, as the recovery cross-check needs. It shares
// Ingest's single-ingester contract, and concurrent IngestStage callers
// must be quiesced for the duration (the collector holds its ingest gate
// exclusively): a chunk landing mid-barrier would count toward no round.
// Returns the round number. After Close it is a no-op.
func (s *Sink) Checkpoint() uint64 {
	if s.closed.Load() {
		return s.ckptRound
	}
	s.ckptRound++
	p := s.persister()
	for i, sh := range s.shards {
		rec := s.lock(sh)
		if p != nil {
			p.PersistCheckpoint(CheckpointStats{Round: s.ckptRound, Shard: i,
				Shards: len(s.shards), Packets: sh.packets.Load(), Flows: rec.TrackedFlows()})
		}
		s.unlock(sh)
	}
	return s.ckptRound
}
