// Package pipeline is the streaming collector of the reproduction: it
// shards sink-captured packets by flow key across a pool of workers, each
// owning a private core.Recording, so heavy digest streams ingest in
// parallel while every per-flow answer stays bit-identical to the serial
// path. Three properties make it run-forever capable:
//
//   - bounded buffers: a shard's dispatch buffers are a closed pool made
//     once (QueueDepth+2 of them, argued in NewSink), so steady-state
//     ingest allocates nothing whether or not the workers keep up;
//   - snapshot queries: Sink.Snapshot() (every flow) and SnapshotFlows
//     (the listed ones) return a read-only view whose queries run
//     concurrently with ingestion, without a global flush, at a cost in
//     the flows asked for rather than the packets ingested; the reader
//     closes it on its own goroutine, and a closed view costs the workers
//     nothing after;
//   - a wire-friendly shape: Ingest consumes the same core.PacketDigest
//     batches internal/wire marshals, so a remote tap's stream replays
//     into the sink unchanged.
//
// Flow state is not bounded: a flow stays in its shard's Recording until
// a hand-off moves it out (WithFlow running Recording.Evict), the only way
// a flow leaves.
//
// Determinism argument: a flow's key maps to exactly one shard
// (hash.ShardOf), each shard is a single worker draining a FIFO, and both
// ingest surfaces — the serial Ingest tap and the concurrent
// per-connection Stage/IngestStage path (stage.go) — append a flow's
// digests to its shard in the order the ingester saw them. core.Recording
// draws no randomness, so a flow's state depends only on its own digest
// stream — not on how flows interleave, how many shards exist, or how
// many connections fed the sink. Hence Sink(n
// shards, m ingesters) ≡ Sink(1) ≡ serial Recording, bit for bit, for
// any n and m.
package pipeline

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hash"
)

// Config shapes a sharded sink.
type Config struct {
	// Shards is the worker count; values < 1 mean 1 (serial in a worker).
	Shards int
	// BatchSize is how many packets buffer per shard before dispatch
	// (default 256). Smaller values lower latency, larger values lower
	// channel traffic.
	BatchSize int
	// QueueDepth is the per-shard channel capacity in batches (default 4).
	QueueDepth int
	// Base is ignored: a Recording draws no randomness, so the shards need
	// no seed to agree.
	//
	// Deprecated: leave it unset. It goes with ROADMAP item 10, the
	// benchmark harness's unfreeze, which removes its last setter.
	Base hash.Seed
}

// Sink is the sharded Recording Module. Ingest feeds it from one ingester
// goroutine; Snapshot serves concurrent readers at any time; WithFlow
// runs a function against a flow's live shard state on its worker.
type Sink struct {
	engine *core.Engine
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup
	// mu serializes Snapshot and Close so a snapshot request is never in
	// flight while the workers shut down. Ingest does not take it — the
	// single-ingester contract covers Ingest vs Close ordering.
	mu     sync.Mutex
	closed bool
	// barrier is the reusable reply channel of Barrier and Checkpoint; both
	// share the single-ingester contract with Ingest, so reuse is race-free
	// and a Barrier allocates nothing.
	barrier chan error
	// istage backs the serial Ingest path: routing through a sink-owned
	// Stage lets Ingest share stage.go's per-shard locking, so one serial
	// ingester may run alongside any number of IngestStage callers.
	istage *Stage
	// persist is the attached durability hook (see persist.go); nil-when-
	// detached costs the hot path one atomic load per staged chunk.
	persist atomic.Pointer[persistBox]
	// ckptRound numbers Checkpoint barriers; ingester-goroutine only.
	ckptRound uint64
}

type shard struct {
	idx  int
	ch   chan []core.PacketDigest
	free chan []core.PacketDigest
	exec chan execReq
	rec  *core.Recording
	// mu is the shard's ingest stripe lock: it guards buf and the
	// dispatch hand-off, serializing concurrent IngestStage callers (and
	// the serial Ingest path) per shard. The worker never takes it — the
	// worker owns everything past the channel.
	mu  sync.Mutex
	buf []core.PacketDigest
	// packets/batches/stalls are the shard's ingest counters, written on
	// the ingester goroutine at dispatch time and read from any goroutine
	// via Sink.Stats, hence atomic.
	packets atomic.Uint64
	batches atomic.Uint64
	stalls  atomic.Uint64
	// err holds the shard's first recording error; written by the worker,
	// read concurrently by Sink.Err, hence atomic.
	err atomic.Pointer[error]
}

func (sh *shard) fail(err error) { sh.err.Store(&err) }

func (sh *shard) failed() error {
	if p := sh.err.Load(); p != nil {
		return *p
	}
	return nil
}

// NewSink builds a sharded sink over an engine and starts its workers.
func NewSink(engine *core.Engine, cfg Config) (*Sink, error) {
	if engine == nil {
		return nil, fmt.Errorf("pipeline: nil engine")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 256
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4
	}
	s := &Sink{engine: engine, cfg: cfg, shards: make([]*shard, cfg.Shards),
		barrier: make(chan error, cfg.Shards)}
	// A shard owns QueueDepth+2 dispatch buffers for life: QueueDepth
	// queued, one being recorded, one filling or parked in a sender blocked
	// on a full queue. The ingest path makes no other, and the pool being
	// closed, both hand-offs are plain channel operations: free holds them
	// all, so the worker's return never blocks, and dispatchLocked receives
	// after its own send, when at most QueueDepth+1 are queued or being
	// recorded — the last is in free, or will be when the worker (which
	// returns buffers after a failure too, and outlives every Flush) is done.
	buffers := cfg.QueueDepth + 2
	for i := range s.shards {
		rec, err := core.NewRecording(engine)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			idx:  i,
			ch:   make(chan []core.PacketDigest, cfg.QueueDepth),
			free: make(chan []core.PacketDigest, buffers),
			exec: make(chan execReq),
			rec:  rec,
			buf:  make([]core.PacketDigest, 0, cfg.BatchSize),
		}
		for n := 1; n < buffers; n++ { // sh.buf is the first
			sh.free <- make([]core.PacketDigest, 0, cfg.BatchSize)
		}
		s.shards[i] = sh
	}
	s.istage = s.NewStage()
	s.start()
	return s, nil
}

// shardOf maps a flow to its owning shard via hash.ShardOf — the one
// routing function shared with wire's fused decode-and-shard pass.
func (s *Sink) shardOf(flow core.FlowKey) *shard {
	return s.shards[hash.ShardOf(uint64(flow), uint64(len(s.shards)))]
}

// Ingest buffers a batch of packets, routing each to its flow's shard and
// dispatching any shard buffer that fills. It must not be called
// concurrently with itself, Flush, or Close (one serial tap
// point), but it IS safe alongside any number of IngestStage callers:
// internally it stages into a sink-owned Stage and lands per-shard chunks
// under the same striped locks (stage.go). Snapshot may run concurrently
// from any goroutine.
//
// The loop is the collector's per-packet toll, so the closed check is
// hoisted out of it and the single-shard layout (where routing is the
// identity) skips both the per-packet flow hash and the staging copy,
// moving the batch in buffer-sized copies.
func (s *Sink) Ingest(batch []core.PacketDigest) {
	if len(batch) == 0 {
		return
	}
	if s.closed {
		panic("pipeline: Ingest after Close")
	}
	if len(s.shards) == 1 {
		s.ingestShard(s.shards[0], batch)
		return
	}
	st := s.istage
	mod := uint64(len(st.bufs))
	for i := range batch {
		sh := hash.ShardOf(uint64(batch[i].Flow), mod)
		st.bufs[sh] = append(st.bufs[sh], batch[i])
	}
	s.IngestStage(st)
}

// dispatchLocked hands the filled buffer to the worker and takes its
// replacement from the shard's closed pool (sized in NewSink). A full
// queue counts as one stall before blocking — the ingester-side
// backpressure signal, read through Stats. The caller holds sh.mu.
func (sh *shard) dispatchLocked() {
	if len(sh.buf) == 0 {
		return
	}
	sh.packets.Add(uint64(len(sh.buf)))
	sh.batches.Add(1)
	select {
	case sh.ch <- sh.buf:
	default:
		sh.stalls.Add(1)
		sh.ch <- sh.buf
	}
	sh.buf = <-sh.free
}

// Flush dispatches every shard's partial buffer to its worker without
// waiting for the workers to drain.
func (s *Sink) Flush() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dispatchLocked()
		sh.mu.Unlock()
	}
}

// Barrier flushes every shard's partial buffer and blocks until all the
// packets ingested so far are recorded, so the ingester may read shard
// Recordings without racing the workers — until it ingests again. Unlike
// Close it leaves the workers running: a drain or a replay waits on it
// and the sink keeps serving. It shares Ingest's
// single-ingester contract (never call it concurrently with Ingest, Flush,
// or Close) and allocates nothing. After Close it is a no-op: everything
// is already drained.
func (s *Sink) Barrier() {
	if s.closed {
		return
	}
	s.drainAll(nil)
}

// drainAll is the ingester-side barrier under Barrier and Checkpoint:
// flush every shard, ask every worker to drain its queue and run fn (nil:
// drain only), and wait for all of them on the reusable reply channel. The
// requests fan out first, so the shards drain concurrently.
func (s *Sink) drainAll(fn func(*shard) error) {
	s.Flush()
	for _, sh := range s.shards {
		sh.exec <- execReq{fn: fn, reply: s.barrier}
	}
	for range s.shards {
		<-s.barrier
	}
}

// execReq is the one request a shard worker serves: drain everything
// queued, run fn (nil: nothing) on the worker goroutine against the shard
// and its live Recording, reply. Barrier, Checkpoint, WithFlow, Snapshot
// and Flows are all callers of it.
type execReq struct {
	fn    func(*shard) error
	reply chan<- error
}

// WithFlow runs fn against the live Recording of the shard that owns
// flow, on that shard's worker goroutine, after the worker has drained
// every batch already queued — so fn observes (and may mutate: drain a
// flow's state for hand-off, or fold a migrated flow in) a recording
// that is consistent with everything dispatched before the call, without
// racing ingest. It shares the whole-sink synchronization contract of
// Snapshot and Barrier: callers must order it against Close themselves
// (the collector's ingest gate does). After Close it runs fn directly —
// the workers are gone and the shards are fully drained.
func (s *Sink) WithFlow(flow core.FlowKey, fn func(*core.Recording) error) error {
	sh := s.shardOf(flow)
	s.mu.Lock()
	if s.closed {
		defer s.mu.Unlock()
		return fn(sh.rec)
	}
	s.mu.Unlock()
	reply := make(chan error)
	sh.exec <- execReq{fn: func(sh *shard) error { return fn(sh.rec) }, reply: reply}
	return <-reply
}

// readShards runs fn(i, rec) for every shard i with want(i), against the
// shard's live Recording on its worker goroutine at a batch boundary,
// after the worker has drained its queue, and returns once all have run.
// The requests fan out first, so the workers run concurrently: the wait
// is the slowest shard's fn, not the sum. fn must not record into rec;
// what it may write is the hold counts of rec's flow states, through
// Recording.Lease, which is why a lease is taken here and nowhere else
// (any goroutine releases one). Sink.mu is held throughout, which keeps
// Close from retiring the workers under a request; after Close the
// shards are quiescent and fn runs inline.
func (s *Sink) readShards(want func(i int) bool, fn func(i int, rec *core.Recording)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		for i, sh := range s.shards {
			if want(i) {
				fn(i, sh.rec)
			}
		}
		return
	}
	// One reply slot per shard: no worker waits on the requester.
	reply := make(chan error, len(s.shards))
	read := func(sh *shard) error { fn(sh.idx, sh.rec); return nil }
	asked := 0
	for i, sh := range s.shards {
		if !want(i) {
			continue
		}
		sh.exec <- execReq{fn: read, reply: reply}
		asked++
	}
	for ; asked > 0; asked-- {
		<-reply
	}
}

// start launches one worker goroutine per shard.
func (s *Sink) start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func(sh *shard) {
			defer s.wg.Done()
			for {
				select {
				case b, ok := <-sh.ch:
					if !ok {
						return
					}
					sh.consume(b)
					sh.free <- b[:0]
				case req := <-sh.exec:
					// Drain what is already queued first, so a request made
					// after Ingest+Flush observes all of it.
					sh.drainPending()
					var err error
					if req.fn != nil {
						err = req.fn(sh)
					}
					req.reply <- err
				}
			}
		}(sh)
	}
}

// drainPending consumes every batch already queued without blocking.
func (sh *shard) drainPending() {
	for {
		select {
		case b, ok := <-sh.ch:
			if !ok {
				// Close is serialized against readShards by Sink.mu, so the
				// channel cannot close mid-request; guard anyway.
				return
			}
			sh.consume(b)
			sh.free <- b[:0]
		default:
			return
		}
	}
}

// consume records one batch; the shard's first error freezes it.
func (sh *shard) consume(b []core.PacketDigest) {
	if sh.failed() != nil {
		return // drain after failure; keep Ingest unblocked
	}
	if err := sh.rec.RecordBatch(b); err != nil {
		sh.fail(err)
	}
}

// Snapshot returns a view of every flow of every shard's Recording, safe
// to take from any goroutine while ingestion continues. Each worker
// leases its flows at a batch boundary after draining its queue, so the
// snapshot includes at least every packet dispatched (Ingest of a full
// batch, or Flush) before the call, happens-before respected. See
// Snapshot's doc for what the view shares with the live shards, its own
// concurrency contract, and why a reader Closes it when done.
func (s *Sink) Snapshot() *Snapshot { return s.SnapshotFlows(nil) }

// SnapshotFlows is Snapshot restricted to the listed flows (nil means
// every flow): only the shards that own a listed flow are asked, and each
// leases only its listed flows, so the cost follows the flows asked for —
// a point query touches one flow on one shard however much the sink
// holds. The view answers for the listed flows exactly as a full
// snapshot taken at the same instant would, and reports every other flow
// as untracked.
func (s *Sink) SnapshotFlows(flows []core.FlowKey) *Snapshot {
	snap := &Snapshot{recs: make([]*core.Recording, len(s.shards)), leases: make([]*core.Lease, len(s.shards))}
	byShard := make([][]core.FlowKey, len(s.shards)) // all nil: every flow
	for _, f := range flows {
		i := s.shardOf(f).idx
		byShard[i] = append(byShard[i], f)
	}
	s.readShards(
		func(i int) bool { return flows == nil || len(byShard[i]) > 0 },
		func(i int, rec *core.Recording) { snap.recs[i], snap.leases[i] = rec.Lease(byShard[i]) })
	for i := range snap.recs {
		if snap.recs[i] == nil {
			// A shard nobody asked contributes no flows. An empty Recording
			// in its slot keeps routing, Merged and every accessor uniform.
			// The engine built the shards, so it cannot fail here.
			snap.recs[i], _ = core.NewRecording(s.engine)
		}
	}
	return snap
}

// Flows lists every tracked flow in sorted key order without copying any
// flow's state — what a resize planner needs, and all it needs. Like
// Snapshot it may be called from any goroutine while ingestion continues
// and reflects everything dispatched before the call.
func (s *Sink) Flows() []core.FlowKey {
	perShard := make([][]core.FlowKey, len(s.shards))
	s.readShards(
		func(int) bool { return true },
		func(i int, rec *core.Recording) { perShard[i] = rec.Flows() })
	out := slices.Concat(perShard...)
	slices.Sort(out)
	return out
}

// ShardStats is one shard's ingest counters.
type ShardStats struct {
	// Packets and Batches count what the ingester dispatched to the
	// shard's worker (buffered-but-undispatched packets are not counted
	// until a full buffer, Flush, Barrier, or Close dispatches them).
	Packets uint64 `json:"packets"`
	Batches uint64 `json:"batches"`
	// Stalls counts dispatches that found the worker queue full and had
	// to block — nonzero means the workers are the bottleneck and
	// backpressure reached the ingester.
	Stalls uint64 `json:"stalls"`
	// Queued is the queue length in batches at the time of the call.
	Queued int `json:"queued"`
}

// Accumulate folds another counter set into s. It is the one aggregation
// rule the whole collector tier shares: Sink.Stats sums its shards with
// it, and a federated query frontend sums its fleet members' sink totals
// with it, so "packets across the deployment" means the same thing at
// every level.
func (s *ShardStats) Accumulate(o ShardStats) {
	s.Packets += o.Packets
	s.Batches += o.Batches
	s.Stalls += o.Stalls
	s.Queued += o.Queued
}

// Stats returns per-shard ingest counters plus their totals. It is safe
// from any goroutine at any time (the counters are atomics and the queue
// length is a point-in-time read), which is what a collector daemon's
// status endpoint needs while ingestion runs.
func (s *Sink) Stats() (total ShardStats, perShard []ShardStats) {
	perShard = make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		perShard[i] = ShardStats{
			Packets: sh.packets.Load(),
			Batches: sh.batches.Load(),
			Stalls:  sh.stalls.Load(),
			Queued:  len(sh.ch),
		}
		total.Accumulate(perShard[i])
	}
	return total, perShard
}

// Err returns the first recording error any shard has hit so far, or nil.
// A long-running collector that never Closes should check it alongside
// Snapshot: after a shard fails, that shard stops recording (its answers
// freeze) while the others continue.
func (s *Sink) Err() error {
	for _, sh := range s.shards {
		if err := sh.failed(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the buffers, runs the workers to completion, and returns
// the first recording error. After Close every shard's Recording is
// quiescent and safe to read.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.Flush()
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.wg.Wait()
	return s.Err()
}

// TrackedFlows sums live flows across shards.
func (s *Sink) TrackedFlows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.rec.TrackedFlows()
	}
	return n
}
