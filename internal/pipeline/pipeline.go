// Package pipeline is the streaming collector of the reproduction: it
// shards sink-captured packets by flow key, each shard owning a private
// core.Recording, so digest streams ingest in parallel while every
// per-flow answer stays bit-identical to the serial path. A sink starts no
// goroutine. Each chunk is recorded on the goroutine that ingests it,
// under its shard's stripe lock, by flat combining (Hendler, Incze, Shavit
// and Tzafrir, SPAA 2010): an ingester that finds the shard busy (its
// lock held, or about to be taken) copies its chunk into the shard's
// pending slab and goes back to decoding, and the holder records the slab
// before it lets go.
//
//   - Bounded buffers: a shard's two slabs (the pending one and the one
//     its holder records from) are made once, in NewSink, so ingest
//     allocates nothing however ingesters collide. A chunk that does not
//     fit waits for the lock: the backpressure TCP carries to exporters.
//   - Snapshot queries: Snapshot and SnapshotFlows return a read-only view
//     that answers while ingestion continues, at a cost in the flows asked
//     for rather than the packets ingested; the reader closes it on its
//     own goroutine.
//   - A flow stays in its shard's Recording until a hand-off moves it out
//     (WithFlow running Recording.Evict), the only way a flow leaves.
//
// Determinism: a flow maps to one shard (hash.ShardOf), and each ingester
// lands its chunks there in order: recorded after the slab, or appended
// to it behind its earlier ones. core.Recording draws no randomness, so a
// flow's state depends only on its own digests, and Sink(n shards, m
// ingesters) ≡ serial Recording, bit for bit.
package pipeline

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
)

// Config shapes a sharded sink.
type Config struct {
	// Shards is the shard count; values < 1 mean 1.
	Shards int
	// Base is ignored: a Recording draws no randomness, so the shards need
	// no seed to agree.
	//
	// Deprecated: leave it unset. It goes with ROADMAP item 10, the
	// benchmark harness's unfreeze, which removes its last setter.
	Base hash.Seed
}

// slabPackets is a shard slab's capacity: four 256-packet frames. A chunk
// larger than a slab always waits for the lock.
const slabPackets = 1024

// Sink is the sharded Recording Module. Ingest feeds it from one ingester
// goroutine and IngestStage from any number; Snapshot, Flows, WithFlow
// and Checkpoint serve any goroutine at any time.
type Sink struct {
	engine *core.Engine
	shards []*shard
	closed atomic.Bool
	// istage backs the serial Ingest path, so one serial ingester may run
	// alongside any number of IngestStage callers.
	istage *Stage
	// persist is the attached durability hook (see persist.go).
	persist atomic.Pointer[persistBox]
	// ckptRound numbers Checkpoint rounds; Checkpoint moves it holding
	// every shard's lock.
	ckptRound uint64
}

type shard struct {
	// mu is the shard's stripe lock. Its holder is the one goroutine that
	// records into rec, and it records the pending slab before it lets go
	// (Sink.unlock); spare, the slab it swaps in for pending, is its too.
	mu    sync.Mutex
	rec   *core.Recording
	spare slab
	// pmu guards busy and pending. busy is set by a goroutine that holds
	// mu or is about to take it, and cleared only by a holder that finds
	// pending empty, in the same pmu hold, before it lets go of mu. A
	// session appends to pending only while busy is set, so no chunk waits
	// there without a holder bound to record it.
	pmu     sync.Mutex
	busy    bool
	pending slab
	// packets/batches/stalls are the shard's ingest counters (ShardStats):
	// packets and batches written by the lock holder as it records,
	// stalls by ingesters, all read from any goroutine, hence atomic.
	packets atomic.Uint64
	batches atomic.Uint64
	stalls  atomic.Uint64
	// err holds the shard's first recording error; read concurrently by
	// Sink.Err, hence atomic.
	err atomic.Pointer[error]
}

// slab holds chunks for a shard's lock holder: their packets back to
// back, and where each chunk ends, so each is persisted as it came.
type slab struct {
	pkts []core.PacketDigest
	ends []int
}

func newSlab() slab {
	return slab{make([]core.PacketDigest, 0, slabPackets), make([]int, 0, slabPackets)}
}

// NewSink builds a sharded sink over an engine.
func NewSink(engine *core.Engine, cfg Config) (*Sink, error) {
	if engine == nil {
		return nil, fmt.Errorf("pipeline: nil engine")
	}
	s := &Sink{engine: engine, shards: make([]*shard, max(cfg.Shards, 1))}
	for i := range s.shards {
		rec, err := core.NewRecording(engine)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{rec: rec, pending: newSlab(), spare: newSlab()}
	}
	s.istage = s.NewStage()
	return s, nil
}

// shardOf maps a flow to its owning shard via hash.ShardOf — the one
// routing function shared with wire's fused decode-and-shard pass.
func (s *Sink) shardOf(flow core.FlowKey) *shard {
	return s.shards[hash.ShardOf(uint64(flow), uint64(len(s.shards)))]
}

// Ingest routes a batch of packets to their flows' shards and lands each
// shard's chunk as IngestStage does, through a sink-owned Stage. It must
// not be called concurrently with itself or Close (one serial tap point),
// but is safe alongside any number of IngestStage callers. One shard skips
// the per-packet flow hash and the staging copy.
func (s *Sink) Ingest(batch []core.PacketDigest) {
	if len(batch) == 0 {
		return
	}
	if s.closed.Load() {
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

// ingestShard lands one shard's chunk: it leaves it in the slab if the
// shard is busy, and otherwise takes the lock and records it after the
// slab. Only a chunk the slab cannot take waits; it returns that wait.
func (s *Sink) ingestShard(sh *shard, chunk []core.PacketDigest) (waited time.Duration) {
	sh.pmu.Lock()
	if sh.busy && sh.offer(chunk) {
		sh.pmu.Unlock()
		return 0
	}
	full := sh.busy
	sh.busy = true
	sh.pmu.Unlock()
	if full {
		sh.stalls.Add(1)
		start := time.Now()
		sh.mu.Lock()
		waited = time.Since(start)
	} else {
		sh.mu.Lock()
	}
	s.drain(sh)
	sh.pmu.Unlock()
	s.record(sh, chunk, []int{len(chunk)})
	s.unlock(sh)
	return waited
}

// lock marks sh busy (sessions leave their chunks in the slab), takes its
// lock and records the slab, so the Recording it returns holds every
// packet ingested before the call. Release it with unlock.
func (s *Sink) lock(sh *shard) *core.Recording {
	sh.pmu.Lock()
	sh.busy = true
	sh.pmu.Unlock()
	sh.mu.Lock()
	s.drain(sh)
	sh.pmu.Unlock()
	return sh.rec
}

// offer appends a copy of chunk to the pending slab, unless it does not
// fit. The caller holds sh.pmu.
func (sh *shard) offer(chunk []core.PacketDigest) bool {
	p := &sh.pending
	if len(p.pkts)+len(chunk) > cap(p.pkts) {
		return false
	}
	p.pkts = append(p.pkts, chunk...)
	p.ends = append(p.ends, len(p.pkts))
	return true
}

// drain records the pending slab until it finds it empty, swapping in the
// spare so sessions keep landing chunks meanwhile, and returns holding
// sh.pmu. It marks the shard busy again for a holder that took the lock
// after another cleared busy. The caller holds sh.mu.
func (s *Sink) drain(sh *shard) {
	for {
		sh.pmu.Lock()
		sh.busy = true
		b := sh.pending
		if len(b.pkts) == 0 {
			return
		}
		sh.pending = sh.spare
		sh.pmu.Unlock()
		s.record(sh, b.pkts, b.ends)
		sh.spare = slab{b.pkts[:0], b.ends[:0]}
	}
}

// unlock drains the slab, clears busy in the pmu hold that finds it empty
// and only then lets go of sh.mu: a chunk either landed before that look,
// and this holder recorded it, or finds busy clear and takes the lock.
func (s *Sink) unlock(sh *shard) {
	s.drain(sh)
	sh.busy = false
	sh.pmu.Unlock()
	sh.mu.Unlock()
}

// record logs b's chunks, each ending at one of ends, to the persister
// if one is attached, counts them and records b: in one lock hold, so
// each shard's log order is its record order, and its counters are what
// it has logged. The shard's first recording error freezes it. The
// caller holds sh.mu.
func (s *Sink) record(sh *shard, b []core.PacketDigest, ends []int) {
	if p := s.persister(); p != nil {
		from := 0
		for _, end := range ends {
			p.PersistIngest(b[from:end])
			from = end
		}
	}
	sh.packets.Add(uint64(len(b)))
	sh.batches.Add(uint64(len(ends)))
	if sh.err.Load() == nil {
		if err := sh.rec.RecordBatch(b); err != nil {
			sh.fail(err)
		}
	}
}

// fail keeps the shard's first recording error (err by value: only a
// failure moves it to the heap).
func (sh *shard) fail(err error) { sh.err.Store(&err) }

// Barrier blocks until every packet ingested by the calls that returned
// before it is recorded, so the ingester may read shard Recordings
// directly until it ingests again. It allocates nothing.
func (s *Sink) Barrier() {
	for _, sh := range s.shards {
		s.lock(sh)
		s.unlock(sh)
	}
}

// WithFlow runs fn against the live Recording of the shard that owns
// flow, under its lock (see lock), so fn observes and may mutate (hand a
// flow off, fold one in) a recording that holds every packet ingested
// before the call. While fn runs, the shard's ingesters fill its slab and
// then wait.
func (s *Sink) WithFlow(flow core.FlowKey, fn func(*core.Recording) error) error {
	sh := s.shardOf(flow)
	defer s.unlock(sh)
	return fn(s.lock(sh))
}

// Snapshot returns a view of every flow of every shard's Recording, safe
// to take from any goroutine while ingestion continues. Each shard leases
// its flows under its lock (see lock), so the snapshot includes every
// packet whose ingest call returned before this one. See Snapshot's doc
// for what the view shares with the live shards and why a reader Closes
// it when done.
func (s *Sink) Snapshot() *Snapshot { return s.SnapshotFlows(nil) }

// SnapshotFlows is Snapshot restricted to the listed flows (nil means
// every flow): only the shards that own a listed flow are asked, and each
// leases only its listed flows, so the cost follows the flows asked for —
// a point query touches one flow on one shard however much the sink
// holds. The view answers for the listed flows exactly as a full
// snapshot taken at the same instant would, and reports every other flow
// as untracked. A lease writes only the hold counts of the flows it
// covers, and is taken under the shard's lock (any goroutine releases one).
func (s *Sink) SnapshotFlows(flows []core.FlowKey) *Snapshot {
	snap := &Snapshot{recs: make([]*core.Recording, len(s.shards)), leases: make([]*core.Lease, len(s.shards))}
	byShard := make([][]core.FlowKey, len(s.shards)) // all nil: every flow
	for _, f := range flows {
		i := hash.ShardOf(uint64(f), uint64(len(s.shards)))
		byShard[i] = append(byShard[i], f)
	}
	for i, sh := range s.shards {
		if flows == nil || len(byShard[i]) > 0 {
			snap.recs[i], snap.leases[i] = s.lock(sh).Lease(byShard[i])
			s.unlock(sh)
		} else {
			// A shard nobody asked contributes no flows. An empty Recording
			// in its slot keeps routing, Merged and every accessor uniform.
			// The engine built the shards, so it cannot fail here.
			snap.recs[i], _ = core.NewRecording(s.engine)
		}
	}
	return snap
}

// Flows lists every tracked flow in sorted key order without copying any
// flow's state — what a resize planner needs. Like Snapshot it reflects
// every packet ingested before the call.
func (s *Sink) Flows() []core.FlowKey {
	var out []core.FlowKey
	for _, sh := range s.shards {
		out = append(out, s.lock(sh).Flows()...)
		s.unlock(sh)
	}
	slices.Sort(out)
	return out
}

// ShardStats is one shard's ingest counters.
type ShardStats struct {
	// Packets and Batches count the packets and chunks the shard has
	// recorded and logged. A chunk that waits in the shard's slab counts
	// once its holder records it, which it does before it lets go.
	Packets uint64 `json:"packets"`
	Batches uint64 `json:"batches"`
	// Stalls counts chunks that found the shard's slab full and waited for
	// its lock — nonzero means recording is the bottleneck and
	// backpressure reached the ingester.
	Stalls uint64 `json:"stalls"`
}

// Accumulate folds another counter set into s: the one aggregation rule
// of the collector tier, for a sink's shards and a fleet's members alike.
func (s *ShardStats) Accumulate(o ShardStats) {
	s.Packets += o.Packets
	s.Batches += o.Batches
	s.Stalls += o.Stalls
}

// Stats returns per-shard ingest counters plus their totals, from any
// goroutine at any time.
func (s *Sink) Stats() (total ShardStats, perShard []ShardStats) {
	perShard = make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		perShard[i] = ShardStats{
			Packets: sh.packets.Load(),
			Batches: sh.batches.Load(),
			Stalls:  sh.stalls.Load(),
		}
		total.Accumulate(perShard[i])
	}
	return total, perShard
}

// Err returns the first recording error any shard has hit so far, or nil.
// A failed shard stops recording (its answers freeze); the others go on.
func (s *Sink) Err() error {
	for _, sh := range s.shards {
		if p := sh.err.Load(); p != nil {
			return *p
		}
	}
	return nil
}

// Close records every shard's slab and returns the first recording error.
// After Close, ingest panics, and every shard's Recording is quiescent and
// safe to read. A second Close does nothing.
func (s *Sink) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.Barrier()
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
