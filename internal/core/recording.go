package core

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/coding"
	"repro/internal/hash"
)

// Recording is the sink-side Recording Module (§3.4): it intercepts the
// digests the PINT Sink extracts, attributes each slice to its query, and
// maintains the per-flow state queries need — coding decoders for path
// queries, per-(flow,hop) counts of the one-byte codes for latency
// queries, value streams for per-packet queries. All of this state lives
// off-switch. It draws no randomness: a flow's state is a function of its
// own digest stream, whatever the order flows interleave in — the property
// that makes the sharded pipeline bit-identical to the serial path.
//
// A Recording is one of two kinds. One that records (NewRecording) is the
// one writer of its flows' state, on one goroutine. A view (Lease, Clone,
// Merge of views) is what the Inference Module reads: it answers from the
// flow states it shares with the Recording it was taken from, and refuses
// every write.
type Recording struct {
	engine *Engine
	// flows holds the whole per-flow state of a Recording that records,
	// flow-major: one lookup reaches everything a packet touches. It is nil
	// until the first write, and on a view (Lease), which only reads.
	flows *arena
	// runs index a view: the leases whose flow states it reads, its own
	// and those of every view it merged, disjoint and at most one per shard,
	// searched in turn. It is nil on a Recording that records.
	runs []*Lease
	// found is the run entry find returned last, as its run's index+1 in
	// runs above 32 bits and its block offset below, 0 for none: an answer
	// looks a flow up a dozen times, and only the first searches the runs.
	// Concurrent readers may all set it, hence atomic.
	found atomic.Uint64
	// decs holds the path decoders bound for a run of one flow's packets
	// (recordRun), by the query's ordinal among the engine's path queries.
	decs []runDecoder
	// spare takes back the runs of r's released Leases; made at r's first
	// Lease, nil on a view.
	spare *spareRun
}

// runDecoder is a path decoder bound over one flow's block for a run of
// its packets, unbound between runs, and the scratch slab it is bound
// over: the flow's stored packets copied in, grown in place by Observe,
// and never a flow's own, so no Lease sees it.
type runDecoder struct {
	dec     coding.Decoder
	scratch []uint64
}

// errView is what a write to a view returns.
var errView = errors.New("core: a view of a recording (Lease, Clone, Merge) only reads")

// NewRecording creates a Recording Module for an engine.
func NewRecording(engine *Engine) (*Recording, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	return &Recording{engine: engine}, nil
}

// records reports whether r records, rather than being a view.
func (r *Recording) records() bool { return r.runs == nil }

// own returns r's arena, made at its first write.
func (r *Recording) own() *arena {
	if r.flows == nil {
		r.flows = &arena{pageSet: pageSet{e: r.engine}}
	}
	return r.flows
}

// NewRecordingSeeded is NewRecording for a caller that still passes a
// latency-sketch size and a seed: a Recording no longer sketches or draws
// randomness, so it refuses sketchItems other than 0 and ignores base.
//
// Deprecated: use NewRecording. It goes with ROADMAP item 10, the
// benchmark harness's unfreeze, which removes its last caller.
func NewRecordingSeeded(engine *Engine, sketchItems int, base hash.Seed) (*Recording, error) {
	if sketchItems != 0 {
		return nil, fmt.Errorf("core: a recording counts latency codes and keeps no sketches (sketch items %d)", sketchItems)
	}
	return NewRecording(engine)
}

// Record processes one sink-extracted digest for a flow whose path length
// is k (derived from the received TTL).
func (r *Recording) Record(flow FlowKey, k int, pktID uint64, digest uint64) error {
	pkt := [1]PacketDigest{{Flow: flow, PktID: pktID, PathLen: k, Digest: digest}}
	return r.RecordBatch(pkt[:])
}

// RecordBatch ingests a batch of sink-extracted digests — the shape the
// pipeline's shards and the batch experiment harness drive. Packets that came
// through EncodeHopBatch carry their query-set selection already cached.
// A flow's state is looked up, and its path decoders bound, once per run
// of packets with equal Flow (exporters frame per flow) — it stays valid
// through the run, because recording never evicts — and a packet whose
// queries have all seen its flow before allocates only when a store needs
// room: a latency store counts in place and allocates only when it folds
// its tail into a new, widened or shared histogram (latStore.fold), a util
// series grows by append. A new flow is its block in r's arena; a flow a
// view holds is copied once, at its first packet after the Lease
// (arena.writable), and a block the Lease no longer holds is reused.
func (r *Recording) RecordBatch(batch []PacketDigest) error {
	if !r.records() {
		return errView
	}
	a := r.own()
	r.reclaim()
	for len(batch) > 0 {
		n := 1
		for n < len(batch) && batch[n].Flow == batch[0].Flow {
			n++
		}
		fs, err := a.writable(batch[0].Flow, batch[0].PathLen)
		if err == nil {
			err = r.recordRun(&fs, batch[:n])
		}
		if err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// reclaim frees the blocks r retired while leases held them, once a
// Release since the last reclaim may have let go of them.
func (r *Recording) reclaim() {
	if len(r.flows.retired) > 0 && r.spare.released.Swap(false) {
		r.flows.reclaim()
	}
}

// find returns flow's state and true, or false when r does not track the
// flow.
func (r *Recording) find(flow FlowKey) (flowState, bool) {
	if r.records() {
		return r.flows.find(flow)
	}
	if p := r.found.Load(); p != 0 {
		if l := r.runs[p>>32-1]; l.ps.key(uint32(p)) == flow {
			return l.ps.state(uint32(p)), true
		}
	}
	for n, l := range r.runs {
		// slices.BinarySearchFunc, written out: its compare call per step
		// doubles the cost of a search.
		run := l.run
		i, j := 0, len(run)
		for i < j {
			if h := int(uint(i+j) >> 1); l.ps.key(run[h]) < flow {
				i = h + 1
			} else {
				j = h
			}
		}
		if i < len(run) && l.ps.key(run[i]) == flow {
			r.found.Store(uint64(n+1)<<32 | uint64(run[i]))
			return l.ps.state(run[i]), true
		}
	}
	return flowState{}, false
}

// recordRun records a run of packets of fs's flow, whose block is laid
// out for its path length. Each path query's decoder is bound over the
// block and over r's scratch holding the flow's stored packets for the
// whole run, and at the run's end, also when a packet fails, the flow
// keeps an exact-length copy of the slab only if the path is still
// undecoded (keepSlab): a done decoder keeps none. A flow whose paths
// have all decoded by then moves into a rowless block: a done decoder
// reads no candidate row again (coding.Decoder), so a decoded flow keeps
// only its answer, and the block with rows, unheld (writable copied a
// held one), goes back to the free list for the next new flow.
func (r *Recording) recordRun(fs *flowState, run []PacketDigest) error {
	e := r.engine
	if len(r.decs) != e.kinds[opPath] {
		r.decs = make([]runDecoder, e.kinds[opPath])
	}
	bound := fs.k() <= coding.MaxPathLen
	if bound {
		for i := range e.places {
			if pl := &e.places[i]; pl.kind == opPath {
				rd := &r.decs[pl.ord]
				words, rows := fs.parts(pl)
				rd.scratch = append(rd.scratch[:0], fs.slab(pl.ord)...)
				pl.plan.Bind(&rd.dec, fs.k(), words, rows, rd.scratch)
			}
		}
	}
	var err error
	for i := range run {
		if err = r.record(fs, &run[i]); err != nil {
			break
		}
	}
	if bound {
		decoded := true
		for i := range e.places {
			if pl := &e.places[i]; pl.kind == opPath {
				rd := &r.decs[pl.ord]
				fs.keepSlab(pl, rd.dec.Slab())
				rd.scratch = rd.dec.Slab()[:0]
				decoded = decoded && rd.dec.Done()
				rd.dec = coding.Decoder{}
			}
		}
		if decoded && e.rowsPerHop > 0 && fs.w[hdrK]&rowless == 0 {
			fs.a.move(fs, uint64(fs.k())|rowless)
		}
	}
	return err
}

// record runs one packet of fs's flow through the compiled program of its
// query set: direct kind dispatch on precomputed ops, no Extracted
// materialization, no type switches on interfaces. A packet claiming a
// longer path than the flow's first (any exporter can send one) may elect
// a hop past the flow's per-hop stores, and that per-hop sample is dropped
// — the same packets always drop the same samples, so every replay of the
// stream still agrees.
func (r *Recording) record(fs *flowState, pkt *PacketDigest) error {
	e := r.engine
	si := e.setIndexOf(pkt)
	if si < 0 {
		return nil
	}
	k, ops := fs.k(), e.progs[si].ops
	for i := range ops {
		op := &ops[i]
		bits := pkt.Digest >> op.shift & op.mask
		pl := &e.places[op.slot]
		switch op.kind {
		case opPath:
			if k > coding.MaxPathLen {
				return fmt.Errorf("core: flow %v: path length %d out of [1,%d] for path query %q", pkt.Flow, k, coding.MaxPathLen, op.path.Name())
			}
			fs.start(op.slot)
			op.path.ObserveInto(&r.decs[pl.ord].dec, pkt.PktID, bits)
		case opLatency:
			fs.start(op.slot)
			if hop := op.lat.Winner(pkt.PktID, pkt.PathLen); hop <= k {
				fs.store(e, pl, hop).add(bits)
			}
		case opUtil:
			fs.start(op.slot)
			fs.setSeries(e, pl, append(fs.series(pl), op.util.Decode(bits)))
		}
	}
	return nil
}

// Evict drops all recorded state for one flow. The hand-off's export is
// its one caller: a flow leaves a Recording no other way. A lease that
// holds the flow still reads it; its block is reused once none does.
func (r *Recording) Evict(flow FlowKey) {
	if a := r.flows; a != nil {
		if i, ok := a.lookup(flow); ok {
			off := a.slots[i] - 1
			a.remove(i)
			a.retire(off, holds(a.block(off)) != 0)
		}
	}
}

// TrackedFlows returns the number of flows with live state.
func (r *Recording) TrackedFlows() int {
	if r.records() && r.flows != nil {
		return r.flows.n
	}
	n := 0
	for _, l := range r.runs {
		n += len(l.run)
	}
	return n
}

// Flows returns every flow with live state in sorted key order, so
// iterating a Recording's flows (reports, snapshot endpoints) is
// deterministic. On a view it collects AllFlows' walk.
func (r *Recording) Flows() []FlowKey {
	out := make([]FlowKey, 0, r.TrackedFlows())
	if !r.records() {
		return slices.AppendSeq(out, r.walk)
	}
	for i := 0; r.flows != nil && i < len(r.flows.slots); i++ {
		if s := r.flows.slots[i]; s != 0 {
			out = append(out, r.flows.key(s-1))
		}
	}
	slices.Sort(out)
	return out
}

// AllFlows yields the flows Flows lists, in the same order. A view walks
// its runs in place, allocating nothing per flow, and makes each flow it
// yields the one find returns without a search, so answering the flow
// before the next is yielded costs no lookup; a Recording that records
// yields the sorted list Flows makes.
func (r *Recording) AllFlows() iter.Seq[FlowKey] {
	if r.records() {
		return slices.Values(r.Flows())
	}
	return r.walk
}

// walk is AllFlows on a view: a merge of its runs, each already in key
// order.
func (r *Recording) walk(yield func(FlowKey) bool) {
	next := make([]int, len(r.runs)) // each run's first flow not yet out
	for {
		low, key := -1, FlowKey(0)
		for i, l := range r.runs {
			if next[i] < len(l.run) {
				if k := l.ps.key(l.run[next[i]]); low < 0 || k < key {
					low, key = i, k
				}
			}
		}
		if low < 0 {
			return
		}
		r.found.Store(uint64(low+1)<<32 | uint64(r.runs[low].run[next[low]]))
		next[low]++
		if !yield(key) {
			return
		}
	}
}

// HasFlow reports whether a flow currently has live state — what the
// hand-off asks before it exports a flow and evicts it.
func (r *Recording) HasFlow(flow FlowKey) bool {
	_, ok := r.find(flow)
	return ok
}

// Clone is a view of every flow (Lease) whose Lease nobody releases: the
// flows it shares stay held, and r's next write to each is a copy. The
// blocks those writes replace are never reused.
func (r *Recording) Clone() *Recording {
	c, _ := r.Lease(nil)
	return c
}

// Lease is a view's index and its claim on the flow states it shares: one
// run of block offsets, 4 bytes a flow, in the order of the key each
// block's header holds, and the pages and side entries of r's arena as
// they were at the Lease. Each block in it counts a hold until Release,
// which gives the run back to the Recording it came from: that
// Recording's next Lease fills it again, so a warm view allocates no run.
// A held block is never cut again, so its key stays put for the run.
type Lease struct {
	run   []uint32
	ps    pageSet
	spare *spareRun // where Release leaves run
}

// Lease returns a view of the listed flows (nil means every flow) and its
// Lease, which is the view's index: the view answers every query for
// exactly those of the flows that r tracks, bit-identically to r at the
// moment of the call, however r records on, and neither it nor r's next
// write costs anything for any other flow. It runs between r's writes,
// ordered with them — the pipeline leases under a shard's lock, between
// chunks, and hands the view to concurrent readers. r must record;
// a Lease of a view is a programming error and panics.
//
// A view copies no flow. It shares each flow's block with r, which counts
// a hold on the block; a held block is not written. r's next write to a
// held flow first copies that one flow to a fresh block (arena.unshare),
// so a view costs 4 bytes of its run per flow — none when r has a
// released run large enough to refill — and each flow written while it is
// held pays one copy; the held block is reused once no lease holds it.
// What the copy copies and what it shares follows from how each piece of
// state changes. The flow's block — every decoder's words, every latency
// store's inline tail — is bounded in size and written in place, so the
// copy gets its own. A path decoder's slab, which only a decoder still
// peeling keeps, is never written once kept: a run's decoder grows a
// scratch copy, and the run's end keeps a fresh one (recordRun), so the
// copy shares it. A latency store's histogram, never written once a view can see it,
// is shared, the copied tail is marked shared, and the copy's next fold
// counts into a copy of the histogram. A util series is append-only, and
// only r appends, past every view's values or into a fresh array: the copy
// shares it, spare capacity included. A held view keeps alive only the
// blocks, arrays and histograms that existed when it was taken.
func (r *Recording) Lease(flows []FlowKey) (*Recording, *Lease) {
	if !r.records() {
		panic("core: Lease of a view")
	}
	a := r.own()
	need := len(flows)
	if flows == nil {
		need = a.n
	}
	if r.spare == nil {
		r.spare = &spareRun{}
	}
	r.reclaim()
	l := &Lease{run: r.spare.take(need), ps: a.pageSet, spare: r.spare}
	if flows == nil {
		for _, s := range a.slots {
			if s != 0 {
				l.run = append(l.run, s-1)
			}
		}
	}
	for _, f := range flows {
		if i, ok := a.lookup(f); ok {
			l.run = append(l.run, a.slots[i]-1)
		}
	}
	// A flow has one block, so a repeated flow is a repeated offset.
	slices.SortFunc(l.run, func(x, y uint32) int { return cmp.Compare(a.key(x), a.key(y)) })
	l.run = slices.Compact(l.run)
	for _, off := range l.run {
		hold(a.block(off))
	}
	return &Recording{engine: r.engine, runs: []*Lease{l}}, l
}

// spareRun is what a Recording's released Leases give back: the largest
// run, for its next Lease to fill, and a note that holds went down, so
// its next batch or Lease reclaims the blocks it retired. Lease
// takes the run on the owner's goroutine and Release gives one back from
// any goroutine, hence the mutex; recording only reads the note.
type spareRun struct {
	mu       sync.Mutex
	run      []uint32
	released atomic.Bool
}

// take returns an empty run with room for n flows: the spare when it is
// large enough, otherwise a new one, leaving the spare to a larger Lease.
func (s *spareRun) take(n int) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run := s.run; cap(run) >= n {
		s.run = nil
		return run
	}
	return make([]uint32, 0, n)
}

// put offers a run back; the larger of it and the spare is kept.
func (s *spareRun) put(run []uint32) {
	s.mu.Lock()
	if cap(run) > cap(s.run) {
		s.run = run[:0]
	}
	s.mu.Unlock()
}

// Release gives the Lease's holds back, on any goroutine, once the view it
// indexes and every view that merged it are no longer used. A block the
// owner still has installed and nobody holds any more is the owner's alone
// again, so its next write to it lands in place instead of in a copy, and
// one it replaced or evicted is reused from its next batch or Lease on.
// Releasing a Lease twice does nothing the second time: the Lease has let
// go of its run, which may index another Lease by then.
//
// Only the owner's goroutine counts a hold up, and only before it hands
// the view out; each decrement here follows the reader's last read of the
// block, so the owner's load that sees the count at 0 is ordered after
// every read.
//
// The run becomes its Recording's spare if it is the largest returned.
// Its offsets are neither holds nor pointers, so it is left as it is.
func (l *Lease) Release() {
	run := l.run
	for _, off := range run {
		unhold(l.ps.block(off))
	}
	l.run, l.ps = nil, pageSet{}
	l.spare.put(run)
	l.spare.released.Store(true)
}

// Merge adopts every flow of the view o into r. The two must serve the
// same engine and track disjoint flow sets — the shape produced by the
// sharded sink, where a flow's state lives wholly inside one shard — so
// merging is adoption, not state arithmetic: a view r appends o's runs,
// and an empty Recording becomes o's view. o must not be used afterwards.
// Merging a Recording that records any flow, or into one, is refused: the
// merged Recording would have two writers.
func (r *Recording) Merge(o *Recording) error {
	if o == nil {
		return nil
	}
	if o.engine != r.engine {
		return fmt.Errorf("core: merging recordings of different engines")
	}
	switch {
	case o.records() && o.TrackedFlows() == 0:
	case o.records() || r.records() && r.TrackedFlows() > 0:
		return fmt.Errorf("core: merge takes views into a view or an empty recording")
	case r.records():
		r.flows, r.runs = nil, o.runs
	default:
		for _, l := range o.runs {
			for _, off := range l.run {
				if k := l.ps.key(off); r.HasFlow(k) {
					return fmt.Errorf("core: merge would duplicate flow %v", k)
				}
			}
		}
		r.runs = append(r.runs, o.runs...)
	}
	return nil
}

// stateFor returns flow's state and q's place in it, false when the flow
// is not tracked, has not reached q yet, or the engine does not serve q.
func (r *Recording) stateFor(q Query, flow FlowKey) (flowState, *slotPlace, bool) {
	fs, ok := r.find(flow)
	i, served := r.engine.slots[q]
	if !ok || !served || !fs.started(i) {
		return fs, nil, false
	}
	return fs, &r.engine.places[i], true
}

// decoder binds dec as a view of flow's decoder for q and reports whether
// q has state for the flow.
func (r *Recording) decoder(dec *coding.Decoder, q *PathQuery, flow FlowKey) bool {
	fs, pl, ok := r.stateFor(q, flow)
	if ok {
		fs.bindDecoder(dec, pl)
	}
	return ok
}

// store binds a view of flow's store for q at hop (1-based) over *fs, ok
// false when there is none.
func (r *Recording) store(fs *flowState, q *LatencyQuery, flow FlowKey, hop int) (st latStore, ok bool) {
	var pl *slotPlace
	if *fs, pl, ok = r.stateFor(q, flow); !ok || hop < 1 || hop > fs.k() {
		return st, false
	}
	return fs.store(r.engine, pl, hop), true
}

// Path answers a path query: the decoded switch IDs and whether decoding
// is complete (Inference Module, static aggregation).
func (r *Recording) Path(q *PathQuery, flow FlowKey) ([]uint64, bool) {
	return r.AppendPath(nil, q, flow)
}

// AppendPath is Path appending the switch IDs to dst, for a caller that
// answers flow after flow from one buffer.
func (r *Recording) AppendPath(dst []uint64, q *PathQuery, flow FlowKey) ([]uint64, bool) {
	var dec coding.Decoder
	if !r.decoder(&dec, q, flow) {
		return dst, false
	}
	return dec.AppendPath(dst)
}

// PathDecoder returns a copy of a flow's decoder for progress inspection,
// nil when q has no state for the flow. The copy owns its state: the
// Recording's later packets do not show in it, and observing through it
// changes nothing in the Recording.
func (r *Recording) PathDecoder(q *PathQuery, flow FlowKey) *coding.Decoder {
	fs, pl, ok := r.stateFor(q, flow)
	if !ok {
		return nil
	}
	var view coding.Decoder
	fs.bindDecoder(&view, pl)
	return view.Clone()
}

// PathInconsistencies returns the number of packets whose digests
// contradicted the flow's decoded blocks — §7's route-change signal: a
// fully-decoded flow produces inconsistencies with probability 1−2^-q per
// post-change packet, so a short burst is near-certain evidence the path
// moved (e.g. flowlet re-routing or a failover).
func (r *Recording) PathInconsistencies(q *PathQuery, flow FlowKey) int {
	var dec coding.Decoder
	if !r.decoder(&dec, q, flow) {
		return 0
	}
	return dec.Inconsistent()
}

// Hops returns the number of hops a path or latency query answers for on
// the flow — the flow's path length at its first packet — and 0 when q
// has recorded nothing for the flow.
func (r *Recording) Hops(q Query, flow FlowKey) int {
	if fs, pl, ok := r.stateFor(q, flow); ok && pl.kind != opUtil {
		return fs.k()
	}
	return 0
}

// LatencyQuantile answers a dynamic query: the phi-quantile of hop
// `hop` (1-based) for the flow, decoded back to value units. The result
// carries both sampling error (Theorem 1) and compression error (§4.3).
func (r *Recording) LatencyQuantile(q *LatencyQuery, flow FlowKey, hop int, phi float64) (float64, error) {
	out, err := r.LatencyQuantiles(q, flow, hop, phi)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// LatencyQuantiles answers several quantiles of one (flow, hop) at once,
// each exactly what LatencyQuantile returns for it, doing the per-store
// preparation once: a counting store ranks its counts once and allocates
// only the result (countQuantiles: no sample is copied or sorted). Like
// every answer method, it only reads the Recording.
func (r *Recording) LatencyQuantiles(q *LatencyQuery, flow FlowKey, hop int, phis ...float64) ([]float64, error) {
	return r.AppendLatencyQuantiles(nil, q, flow, hop, phis...)
}

// AppendLatencyQuantiles is LatencyQuantiles appending the answers to dst
// (returned unextended on error), for a caller that answers hop after hop
// from one buffer.
func (r *Recording) AppendLatencyQuantiles(dst []float64, q *LatencyQuery, flow FlowKey, hop int, phis ...float64) ([]float64, error) {
	var fs flowState
	st, ok := r.store(&fs, q, flow, hop)
	if !ok {
		return dst, fmt.Errorf("core: no samples for flow %v hop %d", flow, hop)
	}
	if st.samples() == 0 {
		return dst, fmt.Errorf("core: no samples for hop %d", hop)
	}
	out := slices.Grow(dst, len(phis))[:len(dst)+len(phis)]
	codes := out[len(dst):]
	st.countQuantiles(phis, codes)
	for i, code := range codes {
		codes[i] = q.Decode(uint64(code + 0.5))
	}
	return out, nil
}

// LatencySamples returns how many samples hop `hop` has accumulated, or
// math.MaxInt for more: a store counts up to 2^62, past a 32-bit int.
func (r *Recording) LatencySamples(q *LatencyQuery, flow FlowKey, hop int) int {
	var fs flowState
	st, ok := r.store(&fs, q, flow, hop)
	if !ok {
		return 0
	}
	return int(min(st.samples(), math.MaxInt))
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	if fs, pl, ok := r.stateFor(q, flow); ok {
		return fs.series(pl)
	}
	return nil
}
