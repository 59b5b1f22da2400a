package pipeline

import (
	"time"

	"repro/internal/core"
)

// This file is the concurrent half of the sink's ingest surface. The
// classic path (Ingest) is a single tap point; a multi-connection
// collector instead gives every connection its own Stage — a private set
// of per-shard staging buffers — and lands them with IngestStage, which
// takes only the locks of the shards a batch actually touched, and
// records on the connection's own goroutine:
//
//	conn 1 ─ decode → Stage ─┐  stripe lock  ┌─ shard 0 Recording
//	conn 2 ─ decode → Stage ─┼─ or pending ──┼─ shard 1 Recording
//	conn N ─ decode → Stage ─┘     slab      └─ shard K Recording
//
// A connection that finds a shard busy (its lock held, or about to be
// taken) leaves its chunk in the shard's pending slab and decodes on; the
// holder records it.

// Stage is a per-ingester set of per-shard staging buffers, the
// destination array for wire.AppendUnmarshalSharded's fused
// decode-and-shard pass. A Stage belongs to one goroutine at a time;
// distinct Stages may be filled and ingested concurrently. The zero
// value is not usable — obtain one from Sink.NewStage.
type Stage struct {
	bufs [][]core.PacketDigest
}

// NewStage returns an empty Stage shaped for this sink's shard count.
// Its buffers keep their capacity across IngestStage calls, so once they
// have grown to the connection's largest frame a Stage allocates nothing.
func (s *Sink) NewStage() *Stage {
	return &Stage{bufs: make([][]core.PacketDigest, len(s.shards))}
}

// Buffers exposes the per-shard staging buffers, indexed by shard, for a
// decoder to append into (pass it straight to AppendUnmarshalSharded —
// the routing function is the shared hash.ShardOf, so decode-time
// routing and sink routing agree by construction). The returned slice is
// the Stage's own: appends through it are visible to IngestStage.
func (st *Stage) Buffers() [][]core.PacketDigest { return st.bufs }

// Reset discards everything staged, keeping capacity. Callers must Reset
// after a decode error: a failed AppendUnmarshalSharded may have staged
// a prefix of the bad frame.
func (st *Stage) Reset() {
	for i := range st.bufs {
		st.bufs[i] = st.bufs[i][:0]
	}
}

// IngestStage lands every staged packet in its shard, empties the stage
// (capacity retained) and returns how long it waited on full slabs. Unlike
// Ingest it is safe to call from many goroutines at once, one Stage each:
// per-shard striped locks serialize the recording, and the persister (if
// attached) sees each chunk in the lock hold that records it, so the
// durable log preserves per-shard record order — the property recovery
// replay needs (see persist.go).
//
// Backpressure: a chunk that finds its shard busy and its slab full
// waits for the lock, which blocks this call — and only ingesters
// touching that shard. A networked collector therefore stalls exactly the
// connections feeding the hot shard, and TCP propagates the stall to
// their exporters. The time returned is that wait alone: the time spent
// recording other sessions' chunks is the sink working, not congestion.
func (s *Sink) IngestStage(st *Stage) (waited time.Duration) {
	if s.closed.Load() {
		panic("pipeline: Ingest after Close")
	}
	for idx := range st.bufs {
		if len(st.bufs[idx]) == 0 {
			continue
		}
		waited += s.ingestShard(s.shards[idx], st.bufs[idx])
		st.bufs[idx] = st.bufs[idx][:0]
	}
	return waited
}
