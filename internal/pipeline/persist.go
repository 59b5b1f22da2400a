package pipeline

import (
	"repro/internal/core"
)

// This file is the sink's durability hook. The sink itself stays a pure
// in-memory structure; a Persister observes the two events a durable
// tier needs — the ingested stream and checkpoint barriers — without
// touching the hot path when none is attached (one atomic load per
// staged chunk).

// Persister receives the sink's durable events. internal/segstore's
// Writer is the production implementation: it copies each event into a
// bounded queue and applies it on its own goroutine, so the only way
// persistence slows ingestion is genuine backpressure (the queue is
// full because the disk is behind).
//
// Contract:
//
//   - PersistIngest runs on an ingester goroutine for every chunk of
//     packets bound for one shard, under that shard's stripe lock and
//     before any of the chunk reaches a worker. The lock makes the
//     guarantee *per-shard order*: restrict the sequence of PersistIngest
//     calls to any one shard's packets and you get exactly the order that
//     shard's worker records them in. That is deliberately weaker than
//     the global-arrival-order property the serial sink used to provide —
//     with many connections ingesting concurrently there is no global
//     order — and it is still exactly what recovery needs: replaying the
//     log re-routes every packet to the same shard (routing is a pure
//     function of the flow key) and reproduces each shard's stream, and
//     with it every flow's stream, verbatim. Implementations must accept
//     concurrent calls (segstore.Writer's bounded channel already does);
//     the slice is only valid during the call — implementations copy.
//   - PersistCheckpoint runs on each shard's worker goroutine during
//     Sink.Checkpoint, after the shard drained everything dispatched to
//     it, so the stats describe a quiescent shard.
type Persister interface {
	PersistIngest(batch []core.PacketDigest)
	PersistCheckpoint(cp CheckpointStats)
}

// CheckpointStats is one shard's state at a checkpoint barrier.
type CheckpointStats struct {
	// Round numbers the Checkpoint call (1, 2, …) within this sink's
	// lifetime; every shard reports once per round.
	Round uint64
	// Shard / Shards locate this report within the round.
	Shard  int
	Shards int
	// Packets is the shard's dispatched-packet counter; the barrier
	// guarantees all of them are recorded.
	Packets uint64
	// Flows is the shard's live flow count.
	Flows int
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

// Checkpoint flushes every shard and runs a checkpoint barrier: each
// worker drains everything dispatched to it, reports its CheckpointStats
// to the persister (if one is attached), and replies. When Checkpoint
// returns, every packet ingested before the call is recorded AND its
// checkpoint record is ordered after all of those packets' PersistIngest
// events — the ordering the recovery cross-check relies on. It shares
// Ingest's single-ingester contract, and callers wanting the cross-check
// property must also quiesce concurrent IngestStage callers for the
// duration (the collector holds its ingest gate exclusively): a chunk
// landing mid-barrier would count toward no round. Returns the round
// number. After Close it is a no-op.
func (s *Sink) Checkpoint() uint64 {
	if s.closed {
		return s.ckptRound
	}
	s.ckptRound++
	round := s.ckptRound
	// The worker drains before it runs this, so the report describes a
	// shard that has recorded everything dispatched to it.
	s.drainAll(func(sh *shard) error {
		if p := s.persister(); p != nil {
			p.PersistCheckpoint(CheckpointStats{
				Round:   round,
				Shard:   sh.idx,
				Shards:  len(s.shards),
				Packets: sh.packets.Load(),
				Flows:   sh.rec.TrackedFlows(),
			})
		}
		return nil
	})
	return round
}
