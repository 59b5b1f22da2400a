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
	"repro/internal/sketch"
)

// Recording is the sink-side Recording Module (§3.4): it intercepts the
// digests the PINT Sink extracts, attributes each slice to its query, and
// maintains the per-flow state queries need — coding decoders for path
// queries, per-(flow,hop) samples or sketches for latency queries, value
// streams for per-packet queries. All of this state lives off-switch.
type Recording struct {
	engine *Engine
	// sketchItems > 0 stores latency samples in KLL sketches with that
	// accuracy parameter (PINTS in Fig 9); 0 counts one-byte codes.
	sketchItems int
	// base seeds the recording-side sketches: each (query, flow, hop)
	// store derives its RNG from base deterministically, so a flow's
	// state is independent of cross-flow arrival order — the property
	// that makes the sharded pipeline bit-identical to the serial path.
	base hash.Seed
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
}

// flowState is what the Recording holds for one flow: its path length and
// one slot per compiled query, indexed by the slot number the query's ops
// carry (Engine.slots).
type flowState struct {
	// k is the path length of the flow's first recorded packet. Every
	// per-hop slot is sized by it, whichever packet first reaches the
	// slot's query, so a route that shortens mid-flow (§7) leaves the
	// later hops empty instead of giving the queries different hop counts.
	// 0 until a packet arrives (a restored flow with no per-hop state).
	// An int16, which keeps the state in the 32-byte size class with
	// shared and holds: the wire and the decoders stop at 64 hops.
	k int16
	// shared is set while a clone may hold the state too. While it is set
	// nobody writes to the state: every holder that records swaps in a
	// private copy first (stateOf). Only the Recording the state is
	// installed in sets it, and clears it (Release) once no clone holds the
	// state; every other holder only reads it, and only while it holds the
	// state.
	shared bool
	// holds counts the leases the owning Recording gave out on the state
	// and has not had back (see Lease). maxHolds is a count that stays:
	// such a state is shared for good. Only the owner's goroutine reads or
	// writes it.
	holds uint32
	slots []querySlot
}

// maxHolds is the hold count of a state shared for good; a count that
// reaches it is never decremented.
const maxHolds = math.MaxUint32

// querySlot is one query's state for one flow. The query's kind decides
// which field is live; a nil field means the query has seen no packet of
// the flow yet. Per-hop fields are sized by the flow's path length
// (flowState.k).
type querySlot struct {
	dec    *coding.Decoder // PathQuery
	lat    []latStore      // LatencyQuery, one store per hop
	series []float64       // UtilQuery: decoded values in arrival order
}

// hops is the number of hops the slot holds state for: the decoder's k or
// the number of per-hop stores, 0 when the slot has none.
func (s querySlot) hops() int {
	if s.dec != nil {
		return s.dec.K()
	}
	return len(s.lat)
}

// latStore holds one (flow, hop)'s latency samples: in a KLL sketch behind
// sum when the Recording sketches them, and otherwise counted. A latency
// code is one byte (NewLatencyQuery), so a quantile depends only on how
// often each code was seen. add counts a code in place, in an inline tail
// of counters for the codes lo..lo+latTail-1; a code outside that window
// slides it while the codes held still fit, and otherwise, or at a full
// counter, the tail folds into a histogram of 64-bit counts behind sum
// (count, fold). A cold 5-hop flow's stores are one 208-byte array and no
// other object.
//
// Each holder's private copy of a flow a clone shares (Recording.Clone)
// copies the store (clone): the tail by value, the histogram by reference
// and marked shared, so the store folds into a copy of it.
type latStore struct {
	sum *latSum // a sketch's from the start, a counting store's from its first fold
	// lo is the tail's first code, or tailClosed, which sends every sample
	// to the slow path: in a sketch's store, and in a store that may be near
	// maxLatSamples (restored or full).
	lo uint16
	// shared is set on every store of a flow state copied after a clone
	// (flowState.unshare) and cleared by the fold into a histogram of its own.
	shared bool
	tail   [latTail]uint8 // the samples not folded, counted per code from lo
}

// latSum is what a store keeps behind its one pointer: a KLL sketch, or the
// code counts of the samples folded out of its tail, for the codes
// lo..lo+len(counts)-1, the lowest and highest it has counted; 64-bit, as a
// long flow's hop may see 2^32 of one code.
type latSum struct {
	kll    *sketch.KLL
	n      int // samples counted in counts
	lo     int
	counts []uint64
}

// latTail is the counters in a store's inline tail, as many as keep
// latStore at 40 bytes, and tailClosed the lo of a closed tail.
const latTail, tailClosed = 29, 1 << 8

// maxLatSamples is the most samples a counting store takes: more than any
// flow's hop sees, and few enough that no count or total wraps. A restored
// histogram may count up to it (restoreHist), so a store restored from any
// blob records on into one that is accepted again.
const maxLatSamples = 1 << 62

// kll returns the store's sketch, nil for a counting store.
func (st *latStore) kll() *sketch.KLL {
	if st.sum == nil {
		return nil
	}
	return st.sum.kll
}

// samples is the number of samples a counting store has taken: those in
// its histogram and those in its tail.
func (st *latStore) samples() (n int) {
	if st.sum != nil {
		n = st.sum.n
	}
	for _, c := range st.tail {
		n += int(c)
	}
	return n
}

func (st *latStore) add(code uint64) {
	if i := code - uint64(st.lo); i < latTail && st.tail[i] < math.MaxUint8 {
		st.tail[i]++
		return
	}
	if kll := st.kll(); kll != nil {
		kll.Add(float64(code))
		return
	}
	st.count(int(code))
}

// count is add for a code the tail cannot take as it is: outside
// the window, at a full counter, or any while the tail is closed. The
// window slides to centre the held codes and the code when they fit it;
// otherwise the tail folds and a new one starts at the code. A tail opens
// only while a full one cannot carry the store past maxLatSamples.
func (st *latStore) count(code int) {
	lo, hi, held := st.held()
	lo, hi = min(lo, code), max(hi, code)
	if held && (hi-lo >= latTail || uint(code-int(st.lo)) < latTail) {
		st.fold()
		lo, hi, held = code, code, false
	}
	if !held && st.sum != nil && st.sum.n > maxLatSamples-latTail*math.MaxUint8 {
		st.lo = tailClosed
		return
	}
	var tail [latTail]uint8
	at := min(max(lo-(latTail-1-(hi-lo))/2, 0), 1<<8-latTail)
	for j, c := range st.tail {
		if c != 0 {
			tail[int(st.lo)+j-at] = c
		}
	}
	st.lo, st.tail = uint16(at), tail
	st.tail[code-at]++
}

// held returns the lowest and highest code the tail counts and true, or,
// for an empty tail, a range every code widens, and false.
func (st *latStore) held() (lo, hi int, ok bool) {
	lo, hi = 1<<8, -1
	for j, c := range st.tail {
		if c != 0 {
			lo, hi = min(lo, int(st.lo)+j), int(st.lo)+j
		}
	}
	return lo, hi, hi >= 0
}

// fold counts a nonempty tail into the store's histogram, widened to the
// tail's codes, and empties it. A shared store's histogram may be a
// clone's, so it counts into a copy and is private from then on.
func (st *latStore) fold() {
	lo, hi, _ := st.held()
	sum := st.sum
	if sum != nil {
		lo, hi = min(lo, sum.lo), max(hi, sum.lo+len(sum.counts)-1)
	}
	if sum == nil || st.shared || lo < sum.lo || hi >= sum.lo+len(sum.counts) {
		counts := make([]uint64, hi-lo+1)
		switch {
		case sum == nil:
			sum = &latSum{}
		case st.shared:
			copy(counts[sum.lo-lo:], sum.counts)
			sum = &latSum{n: sum.n}
		default:
			copy(counts[sum.lo-lo:], sum.counts)
		}
		sum.lo, sum.counts = lo, counts
	}
	for j, c := range st.tail {
		if c != 0 {
			sum.counts[int(st.lo)+j-sum.lo] += uint64(c)
			sum.n += int(c)
		}
	}
	st.sum, st.tail, st.shared = sum, [latTail]uint8{}, false
}

// clone copies the store for a private copy of its flow (see latStore);
// the sketch, mutated in place, is copied too.
func (st *latStore) clone() latStore {
	c := *st
	c.shared = true
	if kll := st.kll(); kll != nil {
		c.sum = &latSum{kll: kll.Clone()}
	}
	return c
}

// countQuantiles writes the phi-quantile code of a counting store's samples
// to out[i] for each phis[i], by the nearest-rank rule (sketch.RankIndex):
// it counts them into a histogram of the code domain on the stack and
// walks that to the rank.
func (st *latStore) countQuantiles(phis, out []float64) {
	var hist [1 << 8]uint64
	st.countInto(&hist)
	n := st.samples()
	for i, phi := range phis {
		// The code at sorted index rank is the first whose cumulative
		// count exceeds rank.
		rank, code := sketch.RankIndex(phi, n), 0
		for seen := int(hist[0]); seen <= rank; seen += int(hist[code]) {
			code++
		}
		out[i] = float64(code)
	}
}

// countInto adds a counting store's histogram and tail to hist.
func (st *latStore) countInto(hist *[1 << 8]uint64) {
	if st.sum != nil {
		for i, c := range st.sum.counts {
			hist[st.sum.lo+i] += c
		}
	}
	for j, c := range st.tail {
		if c != 0 {
			hist[int(st.lo)+j] += uint64(c)
		}
	}
}

// NewRecording creates a Recording Module for an engine. sketchItems > 0
// stores latency samples in KLL sketches with that accuracy parameter
// (PINTS in Fig 9); 0 counts one-byte codes. The RNG provides
// only the sketch seed base; see NewRecordingSeeded for the explicit form.
func NewRecording(engine *Engine, sketchItems int, rng *hash.RNG) (*Recording, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: recording requires an RNG")
	}
	return NewRecordingSeeded(engine, sketchItems, hash.Seed(rng.Uint64()))
}

// NewRecordingSeeded creates a Recording Module whose sketch randomness
// derives entirely from base. Two recordings with the same engine and base
// produce bit-identical per-flow answers for the same per-flow digest
// streams regardless of how flows interleave — the contract the sharded
// pipeline's workers rely on.
func NewRecordingSeeded(engine *Engine, sketchItems int, base hash.Seed) (*Recording, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	return &Recording{
		engine:      engine,
		sketchItems: sketchItems,
		base:        base,
		flows:       map[FlowKey]*flowState{},
	}, nil
}

// sketchRNG derives the RNG for one (query, flow, hop) store.
func (r *Recording) sketchRNG(qname string, flow FlowKey, hop int) *hash.RNG {
	return hash.NewRNG(r.base.Hash3(hash.Seed(0).HashString(qname), uint64(flow), uint64(hop)))
}

// Record processes one sink-extracted digest for a flow whose path length
// is k (derived from the received TTL).
func (r *Recording) Record(flow FlowKey, k int, pktID uint64, digest uint64) error {
	pkt := PacketDigest{Flow: flow, PktID: pktID, PathLen: k, Digest: digest}
	return r.record(r.stateOf(flow), &pkt)
}

// RecordBatch ingests a batch of sink-extracted digests — the shape shard
// workers and the batch experiment harness drive. Packets that came
// through EncodeHopBatch carry their query-set selection already cached.
// A flow's state is looked up once per run of packets with equal Flow
// (exporters frame per flow) — it stays valid through the run, because
// recording never evicts — and a packet whose queries have all seen its
// flow before allocates only when a store needs room: a latency store
// counts in place and allocates only when it folds its tail into a new,
// widened or shared histogram (latStore.fold), a util series grows by
// append. A new flow's latency stores are one array; a flow a clone shares
// is copied once, at its first packet after the clone (stateOf).
func (r *Recording) RecordBatch(batch []PacketDigest) error {
	var fs *flowState
	for i := range batch {
		if fs == nil || batch[i].Flow != batch[i-1].Flow {
			fs = r.stateOf(batch[i].Flow)
		}
		if err := r.record(fs, &batch[i]); err != nil {
			return err
		}
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
		fs = &flowState{slots: make([]querySlot, len(r.engine.slots))}
	case fs.shared:
		fs = fs.unshare(r.clone)
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

// record runs one packet of fs's flow through the compiled program of its
// query set: direct kind dispatch on precomputed ops, no Extracted
// materialization, no type switches on interfaces. The flow's per-hop
// stores were sized by its first packet's path length; a later packet
// claiming a longer path (any exporter can send one) may elect a hop past
// them, and that per-hop sample is dropped — the same packets always drop
// the same samples, so every replay of the stream still agrees.
func (r *Recording) record(fs *flowState, pkt *PacketDigest) error {
	if fs.k == 0 {
		if pkt.PathLen > math.MaxInt16 {
			return fmt.Errorf("core: flow %v: path length %d", pkt.Flow, pkt.PathLen)
		}
		fs.k = int16(pkt.PathLen)
	}
	si := r.engine.setIndexOf(pkt)
	if si < 0 {
		return nil
	}
	ops := r.engine.progs[si].ops
	for i := range ops {
		op := &ops[i]
		bits := pkt.Digest >> op.shift & op.mask
		slot := &fs.slots[op.slot]
		var err error
		switch op.kind {
		case opPath:
			if slot.dec == nil {
				if slot.dec, err = op.path.NewDecoder(int(fs.k)); err != nil {
					return err
				}
			}
			op.path.ObserveInto(slot.dec, pkt.PktID, bits)
		case opLatency:
			if slot.lat == nil {
				if slot.lat, err = r.newLatStores(op.lat, pkt.Flow, int(fs.k)); err != nil {
					return err
				}
			}
			if hop := op.lat.Winner(pkt.PktID, pkt.PathLen); hop <= len(slot.lat) {
				slot.lat[hop-1].add(bits)
			}
		case opUtil:
			slot.series = append(slot.series, op.util.Decode(bits))
		}
	}
	return nil
}

// newLatStores builds a flow's k per-hop stores for q in the storage the
// Recording is configured for.
func (r *Recording) newLatStores(q *LatencyQuery, flow FlowKey, k int) ([]latStore, error) {
	stores := make([]latStore, k)
	if r.sketchItems > 0 {
		for i := range stores {
			kll, err := sketch.NewKLL(r.sketchItems, r.sketchRNG(q.Name(), flow, i+1))
			if err != nil {
				return nil, err
			}
			stores[i] = latStore{sum: &latSum{kll: kll}, lo: tailClosed}
		}
	}
	return stores, nil
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
// follows from how each piece of state changes. KLL sketches and path
// decoders still peeling are bounded in size and mutated in place, so the
// copy gets its own. A decoder that has decoded its path writes nothing
// but two counters ever again (coding.Decoder's frozen-share rule): the
// copy takes the counters and shares the solved state. A latency store's
// inline tail of counters is part of the per-hop array the copy makes
// anyway; its histogram, never written once a clone can see it, is shared,
// and the copy's next fold counts into a copy of it. A util series is
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
	return &Recording{engine: r.engine, sketchItems: r.sketchItems, base: r.base,
		runs: []*Lease{l}, clone: true}, l
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

// unshare returns a private copy of a shared fs to write to (see Clone for
// what is copied and what is shared). The owner's copy keeps a util
// series' spare capacity; a clone's copy clamps it.
func (fs *flowState) unshare(clamp bool) *flowState {
	c := &flowState{k: fs.k, slots: make([]querySlot, len(fs.slots))}
	for i := range fs.slots {
		slot, cs := &fs.slots[i], &c.slots[i]
		if slot.dec != nil {
			cs.dec = slot.dec.Clone()
		}
		if slot.lat != nil {
			cs.lat = make([]latStore, len(slot.lat))
			for h := range slot.lat {
				cs.lat[h] = slot.lat[h].clone()
			}
		}
		cs.series = slot.series
		if clamp {
			cs.series = slices.Clip(cs.series)
		}
	}
	return c
}

// Merge adopts every flow of o into r. The two recordings must serve the
// same engine and must track disjoint flow sets — the shape produced by
// the sharded sink, where a flow's state lives wholly inside one shard —
// so merging is adoption, not sketch arithmetic. o's per-flow state moves
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

// slot returns flow's state for q: the zero querySlot when the flow is not
// tracked, has not reached q yet, or the engine does not serve q.
func (r *Recording) slot(q Query, flow FlowKey) querySlot {
	fs := r.find(flow)
	i, ok := r.engine.slots[q]
	if fs == nil || !ok {
		return querySlot{}
	}
	return fs.slots[i]
}

// Path answers a path query: the decoded switch IDs and whether decoding
// is complete (Inference Module, static aggregation).
func (r *Recording) Path(q *PathQuery, flow FlowKey) ([]uint64, bool) {
	return r.AppendPath(nil, q, flow)
}

// AppendPath is Path appending the switch IDs to dst, for a caller that
// answers flow after flow from one buffer.
func (r *Recording) AppendPath(dst []uint64, q *PathQuery, flow FlowKey) ([]uint64, bool) {
	dec := r.PathDecoder(q, flow)
	if dec == nil {
		return dst, false
	}
	return dec.AppendPath(dst)
}

// PathDecoder exposes a flow's decoder for progress inspection.
func (r *Recording) PathDecoder(q *PathQuery, flow FlowKey) *coding.Decoder {
	return r.slot(q, flow).dec
}

// PathInconsistencies returns the number of packets whose digests
// contradicted the flow's decoded blocks — §7's route-change signal: a
// fully-decoded flow produces inconsistencies with probability 1−2^-q per
// post-change packet, so a short burst is near-certain evidence the path
// moved (e.g. flowlet re-routing or a failover).
func (r *Recording) PathInconsistencies(q *PathQuery, flow FlowKey) int {
	dec := r.PathDecoder(q, flow)
	if dec == nil {
		return 0
	}
	return dec.Inconsistent()
}

// Hops returns the number of hops a path or latency query answers for on
// the flow — the flow's path length at its first packet — and 0 when q
// has recorded nothing for the flow.
func (r *Recording) Hops(q Query, flow FlowKey) int {
	return r.slot(q, flow).hops()
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
// only the result (countQuantiles: no sample is copied or sorted),
// a KLL sketch builds its weighted list once. Like every answer method, it
// only reads the Recording.
func (r *Recording) LatencyQuantiles(q *LatencyQuery, flow FlowKey, hop int, phis ...float64) ([]float64, error) {
	return r.AppendLatencyQuantiles(nil, q, flow, hop, phis...)
}

// AppendLatencyQuantiles is LatencyQuantiles appending the answers to dst
// (returned unextended on error), for a caller that answers hop after hop
// from one buffer.
func (r *Recording) AppendLatencyQuantiles(dst []float64, q *LatencyQuery, flow FlowKey, hop int, phis ...float64) ([]float64, error) {
	hops := r.slot(q, flow).lat
	if hop < 1 || hop > len(hops) {
		return dst, fmt.Errorf("core: no samples for flow %v hop %d", flow, hop)
	}
	st := &hops[hop-1]
	out := slices.Grow(dst, len(phis))[:len(dst)+len(phis)]
	codes := out[len(dst):]
	if kll := st.kll(); kll != nil {
		if kll.Count() == 0 {
			return dst, fmt.Errorf("core: empty sketch for hop %d", hop)
		}
		copy(codes, kll.Quantiles(phis...))
	} else {
		if st.samples() == 0 {
			return dst, fmt.Errorf("core: no samples for hop %d", hop)
		}
		st.countQuantiles(phis, codes)
	}
	for i, code := range codes {
		codes[i] = q.Decode(uint64(code + 0.5))
	}
	return out, nil
}

// LatencySamples returns how many samples hop `hop` has accumulated.
func (r *Recording) LatencySamples(q *LatencyQuery, flow FlowKey, hop int) int {
	hops := r.slot(q, flow).lat
	if hop < 1 || hop > len(hops) {
		return 0
	}
	st := &hops[hop-1]
	if kll := st.kll(); kll != nil {
		return int(kll.Count())
	}
	return st.samples()
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	return r.slot(q, flow).series
}
