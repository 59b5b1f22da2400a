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
//     shard, with every shard's lock held and every slab recorded. A
//     round's records are cut in that one hold, so no PersistIngest falls
//     between them: they are consecutive in the log, and each reports
//     exactly what its shard logged before it.
type Persister interface {
	PersistIngest(batch []core.PacketDigest)
	PersistCheckpoint(cp CheckpointStats)
}

// CheckpointStats is one shard's state in a checkpoint round.
type CheckpointStats struct {
	// Round numbers the Checkpoint call (1, 2, …); every shard reports
	// once per round, Shard of Shards.
	Round         uint64
	Shard, Shards int
	// Packets is how many packets the shard has recorded and logged;
	// Flows its live flow count.
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

// Checkpoint cuts a checkpoint round: it takes every shard's lock in
// index order (see lock: each records its slab), reports every shard's
// CheckpointStats to the persister (if one is attached), and only then
// lets go of them all. No chunk is logged while the round is cut, so its
// records are consecutive in the log and each claims exactly the packets
// its shard logged before it, as the recovery cross-check needs. It is the
// one caller that holds more than one shard's lock. Returns the round
// number; after Close it cuts none and returns the last.
func (s *Sink) Checkpoint() uint64 {
	for _, sh := range s.shards {
		s.lock(sh)
	}
	if !s.closed.Load() {
		s.ckptRound++
		if p := s.persister(); p != nil {
			for i, sh := range s.shards {
				p.PersistCheckpoint(CheckpointStats{Round: s.ckptRound, Shard: i,
					Shards: len(s.shards), Packets: sh.packets.Load(), Flows: sh.rec.TrackedFlows()})
			}
		}
	}
	round := s.ckptRound
	for _, sh := range s.shards {
		s.unlock(sh)
	}
	return round
}
