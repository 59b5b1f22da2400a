package pipeline

import (
	"repro/internal/core"
)

// This file is the concurrent half of the sink's ingest surface. The
// classic path (Ingest) is a single tap point; a multi-connection
// collector instead gives every connection its own Stage — a private set
// of per-shard staging buffers — and lands them with IngestStage, which
// takes only the locks of the shards a batch actually touched. The
// ingest fan-in then scales with connections × shards instead of
// serializing on one mutex:
//
//	conn 1 ─ decode → Stage ─┐            ┌─ shard 0 worker
//	conn 2 ─ decode → Stage ─┼─ striped ──┼─ shard 1 worker
//	conn N ─ decode → Stage ─┘   locks    └─ shard K worker
//
// Ordering model: a Stage is filled by one goroutine and IngestStage
// appends each shard's chunk atomically (under that shard's lock), so
// every flow's digests — which arrive on one connection and route to one
// shard — reach their worker in connection order. Cross-connection
// interleaving within a shard is arbitrary, and that is enough:
// core.Recording draws no randomness, so per-flow answers depend only on
// the flow's own stream order.

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

// IngestStage lands every staged packet in its shard and empties the
// stage (capacity retained). Unlike Ingest it is safe to call from many
// goroutines at once, one Stage each: per-shard striped locks serialize
// the appends, and the persister (if attached) sees each shard's chunk
// under that shard's lock, so the durable log preserves per-shard append
// order — the property recovery replay needs (see persist.go).
//
// Backpressure: a full worker queue blocks the dispatch inside the
// owning shard's lock, which blocks this call — and only ingesters
// touching that shard — until the worker catches up. A networked
// collector therefore stalls exactly the connections feeding the hot
// shard, and TCP propagates the stall to their exporters.
func (s *Sink) IngestStage(st *Stage) {
	if s.closed {
		panic("pipeline: Ingest after Close")
	}
	for idx := range st.bufs {
		if len(st.bufs[idx]) == 0 {
			continue
		}
		s.ingestShard(s.shards[idx], st.bufs[idx])
		st.bufs[idx] = st.bufs[idx][:0]
	}
}

// ingestShard appends one shard's chunk under its stripe lock: log it
// (per-shard order = append order, the relaxed WAL property), then move
// it into the shard buffer in buffer-sized copies, dispatching each full
// buffer to the worker.
func (s *Sink) ingestShard(sh *shard, chunk []core.PacketDigest) {
	sh.mu.Lock()
	if p := s.persister(); p != nil {
		p.PersistIngest(chunk)
	}
	for len(chunk) > 0 {
		n := copy(sh.buf[len(sh.buf):cap(sh.buf)], chunk)
		sh.buf = sh.buf[:len(sh.buf)+n]
		chunk = chunk[n:]
		if len(sh.buf) == cap(sh.buf) {
			sh.dispatchLocked()
		}
	}
	sh.mu.Unlock()
}
