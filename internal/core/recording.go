package core

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
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
type Recording struct {
	engine *Engine
	// flows indexes the whole per-flow state, flow-major: one lookup
	// reaches everything a packet touches. A clone has no map until its
	// first write (index): its runs index it instead.
	flows map[FlowKey]*flowState
	// runs are the leases (see Lease) whose flow states the Recording
	// shares with the Recording they were taken from: a clone's one run,
	// and those of every Recording it merged. While flows is nil they are
	// the index, disjoint and at most one per shard, searched in turn; once
	// a clone has written, they only name the leases a clone of it pins.
	runs []*Lease
	// found is the run entry find returned last: an answer looks a flow up
	// a dozen times, and only the first searches the runs. Concurrent
	// readers may all set it, hence atomic.
	found atomic.Pointer[leased]
	// clone is set on a clone and on a Recording that merged one. Such a
	// Recording owns none of the util series it shares: the Recording it
	// was cloned from may go on appending to them, so its own copies of a
	// shared flow clamp them (see Clone). Nor does it count holds: the
	// owner of a state counts them on its own goroutine, so the leases a
	// clone gives out are pinned from the start.
	clone bool
	// decs holds the path decoders bound over one flow's block for a run
	// of its packets (recordRun), by the query's ordinal among the
	// engine's path queries; unbound between runs.
	decs []coding.Decoder
}

// NewRecording creates a Recording Module for an engine.
func NewRecording(engine *Engine) (*Recording, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	return &Recording{engine: engine, flows: map[FlowKey]*flowState{}}, nil
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
	return r.recordRun(r.stateOf(flow), pkt[:])
}

// RecordBatch ingests a batch of sink-extracted digests — the shape shard
// workers and the batch experiment harness drive. Packets that came
// through EncodeHopBatch carry their query-set selection already cached.
// A flow's state is looked up, and its path decoders bound, once per run
// of packets with equal Flow (exporters frame per flow) — it stays valid
// through the run, because recording never evicts — and a packet whose
// queries have all seen its flow before allocates only when a store needs
// room: a latency store counts in place and allocates only when it folds
// its tail into a new, widened or shared histogram (latStore.fold), a util
// series grows by append. A new flow is its header and its block (flowState); a flow a
// clone shares is copied once, at its first packet after the clone
// (stateOf).
func (r *Recording) RecordBatch(batch []PacketDigest) error {
	for len(batch) > 0 {
		n := 1
		for n < len(batch) && batch[n].Flow == batch[0].Flow {
			n++
		}
		if err := r.recordRun(r.stateOf(batch[0].Flow), batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// stateOf returns flow's state ready to write to: started if the flow is
// new, and swapped for a private copy if a clone shares it. Every write
// goes through here.
func (r *Recording) stateOf(flow FlowKey) *flowState {
	flows := r.index()
	fs := flows[flow]
	switch {
	case fs == nil:
		fs = &flowState{}
	case fs.shared:
		fs = fs.unshare(r.engine, r.clone)
	default:
		return fs
	}
	flows[flow] = fs
	return fs
}

// index returns the map of r's flows to write through. A clone, indexed
// by its runs until then, builds it at its first write: one transition,
// after which the map is the index.
func (r *Recording) index() map[FlowKey]*flowState {
	if r.flows == nil {
		r.flows = make(map[FlowKey]*flowState, r.TrackedFlows())
		for _, l := range r.runs {
			for _, p := range l.run {
				r.flows[p.key] = p.fs
			}
		}
	}
	return r.flows
}

// find returns flow's state, nil when r does not track the flow.
func (r *Recording) find(flow FlowKey) *flowState {
	if r.flows != nil {
		return r.flows[flow]
	}
	if p := r.found.Load(); p != nil && p.key == flow {
		return p.fs
	}
	for _, l := range r.runs {
		// slices.BinarySearchFunc, written out: its compare call per step
		// doubles the cost of a search.
		run := l.run
		i, j := 0, len(run)
		for i < j {
			if h := int(uint(i+j) >> 1); run[h].key < flow {
				i = h + 1
			} else {
				j = h
			}
		}
		if i < len(run) && run[i].key == flow {
			r.found.Store(&run[i])
			return run[i].fs
		}
	}
	return nil
}

// all yields every flow r tracks with its state, in no set order.
func (r *Recording) all() iter.Seq2[FlowKey, *flowState] {
	return func(yield func(FlowKey, *flowState) bool) {
		if r.flows != nil {
			for f, fs := range r.flows {
				if !yield(f, fs) {
					return
				}
			}
			return
		}
		for _, l := range r.runs {
			for _, p := range l.run {
				if !yield(p.key, p.fs) {
					return
				}
			}
		}
	}
}

// recordRun records a run of packets of fs's flow. The flow's first
// packet lays out its block for its path length. Each path query's decoder
// is bound over the block for the whole run, and its slab, which Observe
// may have grown, is kept at the run's end, also when a packet fails.
func (r *Recording) recordRun(fs *flowState, run []PacketDigest) error {
	e := r.engine
	if fs.k == 0 {
		if k := run[0].PathLen; k < 1 || k > math.MaxInt16 {
			return fmt.Errorf("core: flow %v: path length %d", run[0].Flow, k)
		}
		fs.k = int16(run[0].PathLen)
		fs.words = e.newBlock(int(fs.k), fs.words)
	}
	if len(r.decs) != e.kinds[opPath] {
		r.decs = make([]coding.Decoder, e.kinds[opPath])
	}
	bound := fs.k <= coding.MaxPathLen
	if bound {
		for i := range e.places {
			if pl := &e.places[i]; pl.kind == opPath {
				fs.bindDecoder(&r.decs[pl.ord], pl)
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
		for i := range e.places {
			if pl := &e.places[i]; pl.kind == opPath {
				fs.keepSlab(e, pl, r.decs[pl.ord].Slab())
				r.decs[pl.ord] = coding.Decoder{}
			}
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
	k, ops := int(fs.k), e.progs[si].ops
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
			op.path.ObserveInto(&r.decs[pl.ord], pkt.PktID, bits)
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
// its one caller: a flow leaves a Recording no other way.
func (r *Recording) Evict(flow FlowKey) { delete(r.index(), flow) }

// TrackedFlows returns the number of flows with live state.
func (r *Recording) TrackedFlows() int {
	if r.flows != nil {
		return len(r.flows)
	}
	n := 0
	for _, l := range r.runs {
		n += len(l.run)
	}
	return n
}

// Flows returns every flow with live state in sorted key order, so
// iterating a Recording's flows (reports, snapshot endpoints) is
// deterministic. A Recording indexed by runs merges them, each already in
// key order.
func (r *Recording) Flows() []FlowKey {
	out := make([]FlowKey, 0, r.TrackedFlows())
	if r.flows != nil {
		for f := range r.flows {
			out = append(out, f)
		}
		slices.Sort(out)
		return out
	}
	next := make([]int, len(r.runs)) // each run's first flow not yet out
	for {
		low := -1
		for i, l := range r.runs {
			if next[i] < len(l.run) && (low < 0 || l.run[next[i]].key < r.runs[low].run[next[low]].key) {
				low = i
			}
		}
		if low < 0 {
			return out
		}
		out = append(out, r.runs[low].run[next[low]].key)
		next[low]++
	}
}

// HasFlow reports whether a flow currently has live state — what the
// hand-off asks before it exports a flow and evicts it.
func (r *Recording) HasFlow(flow FlowKey) bool { return r.find(flow) != nil }

// Clone copies the Recording so that the copy answers every query
// bit-identically to the original at the moment of the copy, and both
// sides can keep recording (or be queried) independently afterwards. This
// is what makes the pipeline's snapshot queries race-free: a shard worker
// clones between batches and hands the copy to concurrent readers. A
// Clone is a Lease nobody releases: the flows it shares stay shared.
//
// A clone copies no flow. It shares each flow's state with r and marks
// that flow, not r, as shared; a shared state is not written while it is.
// Whichever holder next records into the flow — r, the clone, or a clone
// of the clone — first swaps in a private copy of that one flow (stateOf),
// so a clone costs 16 bytes of its sorted run per flow, and each flow
// written after it pays one copy. What the copy copies and what it shares
// follows from how each piece of state changes. The flow's block — every
// decoder's words, every latency store's inline tail — is bounded in
// size and written in place, so the copy gets its own, and so does the
// slab of a path decoder still peeling. A decoder that
// has decoded its path writes nothing but two counters in its words ever
// again (coding.Decoder): the copy shares its slab. A latency store's
// histogram, never written once a clone can see it, is shared, the copied
// tail is marked shared, and the copy's next fold counts into a copy of
// the histogram. A util series is
// append-only, so the copy shares it. The owner's copy — r's, or that of
// any Recording that is not a clone and merged none — keeps it as it is,
// spare capacity included: its appends land past every clone's values, or
// in a fresh array. A clone's copy clamps it in length AND capacity
// (s[:len(s):len(s)]), so its appends reallocate. Neither side observes
// the other, a clone costs O(flows) rather than O(packets), and a held
// clone keeps alive only the flow states, arrays and histograms that
// existed when it was taken.
func (r *Recording) Clone() *Recording {
	c, _ := r.Lease(nil)
	return c
}

// Lease is a clone's index and its claim on the flow states it shares:
// one run of (flow, state) pairs in key order, 16 bytes a flow, filled in
// one allocation when the clone is taken. While a Lease is out, the flows
// in it stay shared and the owner copies a flow before writing to it;
// once the owner has it back (Recording.Release) and no other lease holds
// a flow, the owner writes to that flow in place again.
type Lease struct {
	run []leased
	// pinned is set once releasing the lease must do nothing: it was
	// released, it was given out by a clone, or a clone was taken of a
	// Recording holding it, which then holds its states for good. Any
	// goroutine holding the lease may set it; Release reads it.
	pinned atomic.Bool
}

// leased is one flow of a Lease's run.
type leased struct {
	key FlowKey
	fs  *flowState
}

// Lease is Clone restricted to the listed flows (nil means every flow),
// returning the clone and its Lease, which is the clone's index: the copy
// tracks exactly those of the flows that r tracks, and neither it nor r's
// next write costs anything for any other flow. It runs on r's goroutine,
// as Clone does, and counts a hold on each state it shares. Once the
// clone and everything taken from it are no longer used, hand the Lease
// back to Release on r's goroutine, and r's writes to the leased flows
// stop paying for the clone. A Lease never released costs what a Clone
// does. Cloning the returned clone, or a Recording that merged it, pins
// the Lease: its states then stay shared for good, and Release does
// nothing.
func (r *Recording) Lease(flows []FlowKey) (*Recording, *Lease) {
	l := &Lease{}
	if flows == nil {
		l.run = make([]leased, 0, r.TrackedFlows())
		for f, fs := range r.all() {
			l.run = append(l.run, leased{f, fs})
		}
	} else {
		l.run = make([]leased, 0, len(flows))
		for _, f := range flows {
			if fs := r.find(f); fs != nil {
				l.run = append(l.run, leased{f, fs})
			}
		}
	}
	slices.SortFunc(l.run, func(a, b leased) int { return cmp.Compare(a.key, b.key) })
	l.run = slices.CompactFunc(l.run, func(a, b leased) bool { return a.key == b.key })
	for _, p := range l.run {
		fs := p.fs
		// A state already shared is only read here: other goroutines may
		// hold it, and only its owner counts its holds.
		if !fs.shared {
			fs.shared = true
		}
		if !r.clone && fs.holds < maxHolds {
			fs.holds++
		}
	}
	for _, held := range r.runs {
		held.pinned.Store(true)
	}
	if r.clone {
		l.pinned.Store(true)
	}
	return &Recording{engine: r.engine, runs: []*Lease{l}, clone: true}, l
}

// Release takes back a Lease r gave out, on r's goroutine, once the clone
// it indexes and everything taken from that clone are no longer used: the
// hand-over must happen-before the call (a channel does). Each state in
// it loses a hold; one still installed in r that nobody holds any more is
// r's alone again, so r's next write to it lands in place instead of in a
// copy. A state r has since replaced — written through a copy, evicted,
// re-imported — keeps its mark. Releasing a pinned Lease, or one already
// released, does nothing.
func (r *Recording) Release(l *Lease) {
	if l.pinned.Swap(true) {
		return
	}
	for _, p := range l.run {
		fs := p.fs
		if fs.holds == maxHolds {
			continue
		}
		if fs.holds--; fs.holds == 0 && r.flows[p.key] == fs {
			fs.shared = false
		}
	}
}

// Merge adopts every flow of o into r. The two recordings must serve the
// same engine and must track disjoint flow sets — the shape produced by
// the sharded sink, where a flow's state lives wholly inside one shard —
// so merging is adoption, not state arithmetic. o's per-flow state moves
// into r by reference; o must not be used afterwards. Merging a clone
// makes r one (see Clone): r then shares what o shared, and holds o's
// leases. Two Recordings indexed by runs merge by appending o's runs to
// r's, building no map; an empty r adopts o's index as it is.
func (r *Recording) Merge(o *Recording) error {
	if o == nil {
		return nil
	}
	if o.engine != r.engine {
		return fmt.Errorf("core: merging recordings of different engines")
	}
	for f := range o.all() {
		if r.HasFlow(f) {
			return fmt.Errorf("core: merge would duplicate flow %v", f)
		}
	}
	switch {
	case o.TrackedFlows() == 0 && len(o.runs) == 0:
	case r.TrackedFlows() == 0 && len(r.runs) == 0:
		r.flows, r.runs = o.flows, o.runs
	case r.flows == nil && o.flows == nil:
		r.runs = append(r.runs, o.runs...)
	default:
		flows := r.index()
		for f, fs := range o.all() {
			flows[f] = fs
		}
		r.runs = append(r.runs, o.runs...)
	}
	r.clone = r.clone || o.clone
	return nil
}

// stateFor returns flow's state and q's place in it, nil when the flow is
// not tracked, has not reached q yet, or the engine does not serve q.
func (r *Recording) stateFor(q Query, flow FlowKey) (*flowState, *slotPlace) {
	fs := r.find(flow)
	i, ok := r.engine.slots[q]
	if fs == nil || !ok || !fs.started(i) {
		return nil, nil
	}
	return fs, &r.engine.places[i]
}

// decoder binds dec as a view of flow's decoder for q and reports whether
// q has state for the flow.
func (r *Recording) decoder(dec *coding.Decoder, q *PathQuery, flow FlowKey) bool {
	fs, pl := r.stateFor(q, flow)
	if fs != nil {
		fs.bindDecoder(dec, pl)
	}
	return fs != nil
}

// store binds a view of flow's store for q at hop (1-based), ok false when
// there is none.
func (r *Recording) store(q *LatencyQuery, flow FlowKey, hop int) (st latStore, ok bool) {
	fs, pl := r.stateFor(q, flow)
	if fs == nil || hop < 1 || hop > int(fs.k) {
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
	fs, pl := r.stateFor(q, flow)
	if fs == nil {
		return nil
	}
	var view coding.Decoder
	fs.bindDecoder(&view, pl)
	k, dec := int(fs.k), new(coding.Decoder)
	pl.plan.Bind(dec, k, slices.Clone(fs.words[pl.at(k):][:pl.plan.Words(k)]), slices.Clone(view.Slab()))
	return dec
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
	if fs, pl := r.stateFor(q, flow); fs != nil && pl.kind != opUtil {
		return int(fs.k)
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
	st, ok := r.store(q, flow, hop)
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

// LatencySamples returns how many samples hop `hop` has accumulated.
func (r *Recording) LatencySamples(q *LatencyQuery, flow FlowKey, hop int) int {
	st, ok := r.store(q, flow, hop)
	if !ok {
		return 0
	}
	return st.samples()
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	if fs, pl := r.stateFor(q, flow); fs != nil {
		return fs.series(pl)
	}
	return nil
}
