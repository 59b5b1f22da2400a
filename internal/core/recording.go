package core

import (
	"encoding/binary"
	"fmt"
	"iter"
	"slices"

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
	// accuracy parameter (PINTS in Fig 9); 0 keeps raw sample lists.
	sketchItems int
	// base seeds the recording-side sketches: each (query, flow, hop)
	// store derives its RNG from base deterministically, so a flow's
	// state is independent of cross-flow arrival order — the property
	// that makes the sharded pipeline bit-identical to the serial path.
	base hash.Seed
	// flows is the whole per-flow state, flow-major: one lookup reaches
	// everything a packet touches.
	flows map[FlowKey]*flowState
	// clone is set on a clone and on a Recording that merged one. Such a
	// Recording owns none of the series it shares: the Recording it was
	// cloned from may go on appending to them, so its own copies of a
	// shared flow clamp them (see Clone).
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
	// An int32, which keeps the state in the 32-byte size class with
	// shared: the wire and the decoders stop at 64 hops.
	k int32
	// shared is set once a clone holds the state too. From then on nobody
	// writes to it: every holder that records swaps in a private copy
	// first (stateOf). Only an unshared state, which one Recording alone
	// reaches, sets it.
	shared bool
	slots  []querySlot
}

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

// latStore holds one (flow, hop)'s latency samples in one of two forms.
// The raw form keeps every code at the width the plan paid for it on the
// wire: ⌈bits/8⌉ bytes per sample, little-endian, n samples packed in
// arrival order into fixed latChunk-byte chunks (the benchmark plan's
// 8-bit codes cost one byte each). A sample is written once, where it
// stays: a new chunk is allocated every latChunk/width samples and nothing
// is ever copied to grow. That pays off for long stores only: a store's
// first sample takes a whole chunk and a two-slot list (144 B), where
// append growth took 8 to 120 B for up to 64 one-byte samples; from 65
// samples on, chunks allocate less. The width is the query's
// (codeWidth(q.Bits())), passed in by every caller rather than held here,
// which keeps the store at 40 bytes and a 5-hop flow's stores in one
// 208-byte size class.
//
// A clone shares the store with the rest of its flow's state (see
// Recording.Clone). The owner's private copy keeps the chunk list as it
// is, spare capacity and partly filled tail chunk included, and only ever
// writes tail bytes past the clone's n. A clone's copy takes the list as
// a clamped prefix (chunks[:m:m]), so a store whose list has no
// spare capacity may share its tail, and it copies its own part of the
// tail before its first write (copy-on-write, see grow).
type latStore struct {
	chunks []*[latChunk]byte // the samples, latChunk/width to a chunk
	n      int               // raw samples held
	kll    *sketch.KLL
}

// latChunk is the bytes in one raw-latency chunk. A chunk holds
// latChunk/width samples; a wide code never straddles two chunks, and the
// latChunk mod width bytes left over stay unused.
const latChunk = 128

// codeWidth is the bytes one raw sample of a bits-wide code occupies.
func codeWidth(bits int) int { return (bits + 7) / 8 }

// filled returns the bytes of chunk j that hold samples.
func (st *latStore) filled(j, width int) []byte {
	per := latChunk / width
	return st.chunks[j][:min(st.n-j*per, per)*width]
}

// codes yields the raw samples' codes in arrival order.
func (st *latStore) codes(width int) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for j := range st.chunks {
			b := st.filled(j, width)
			for i := 0; i < len(b); i += width {
				// A byte at a time: a width-long copy would be a memmove call
				// per sample.
				code := uint64(b[i])
				for k := 1; k < width; k++ {
					code |= uint64(b[i+k]) << (8 * k)
				}
				if !yield(code) {
					return
				}
			}
		}
	}
}

func (st *latStore) add(code uint64, width int) {
	switch {
	case st.kll != nil:
		st.kll.Add(float64(code))
	case width == 1: // the 8-bit plan's case: a constant modulus, no division per packet
		i := st.n % latChunk
		if i == 0 || len(st.chunks) == cap(st.chunks) {
			st.grow(i, 1)
		}
		st.chunks[len(st.chunks)-1][i] = byte(code)
		st.n++
	default:
		i := st.n % (latChunk / width)
		if i == 0 || len(st.chunks) == cap(st.chunks) {
			st.grow(i, width)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], code)
		copy(st.chunks[len(st.chunks)-1][i*width:], b[:width])
		st.n++
	}
}

// grow makes the last chunk a private one with room at sample slot i: a
// fresh chunk when i is 0, and otherwise a copy of the first i samples of
// a tail this store may share (its list is clamped). The copy takes only
// those i·width bytes, never the whole chunk: the owner may be writing the
// rest concurrently. Either way the list is left with spare capacity, the
// mark of a store that owns its tail.
func (st *latStore) grow(i, width int) {
	c := new([latChunk]byte)
	if i == 0 {
		st.chunks = append(slices.Grow(st.chunks, 2), c)
		return
	}
	last := len(st.chunks) - 1
	copy(c[:], st.chunks[last][:i*width])
	st.chunks = slices.Grow(st.chunks, 2)
	st.chunks[last] = c
}

// clone shares the raw chunks, as they are for the store's owner and as a
// clamped prefix for a clone (see latStore), and copies the sketch, which
// is mutated in place.
func (st *latStore) clone(clamp bool) latStore {
	c := latStore{chunks: st.chunks, n: st.n}
	if clamp {
		c.chunks = slices.Clip(c.chunks)
	}
	if st.kll != nil {
		c.kll = st.kll.Clone()
	}
	return c
}

// rawQuantiles writes the phi-quantile code of the raw samples to out[i]
// for each phis[i], by the nearest-rank rule (sketch.RankIndex). One-byte
// codes — the benchmark plan's — are counted into a histogram of the code
// domain on the stack and walked to the rank, neither copied nor sorted;
// wider codes sort one copy held at their own width.
func (st *latStore) rawQuantiles(width int, phis, out []float64) {
	switch {
	case width == 1:
		st.countQuantiles(phis, out)
	case width == 2:
		sortQuantiles[uint16](st, width, phis, out)
	case width <= 4:
		sortQuantiles[uint32](st, width, phis, out)
	default:
		sortQuantiles[uint64](st, width, phis, out)
	}
}

func sortQuantiles[T uint16 | uint32 | uint64](st *latStore, width int, phis, out []float64) {
	sorted := make([]T, 0, st.n)
	for code := range st.codes(width) {
		sorted = append(sorted, T(code))
	}
	slices.Sort(sorted)
	for i, phi := range phis {
		out[i] = float64(sorted[sketch.RankIndex(phi, len(sorted))])
	}
}

// countQuantiles is rawQuantiles for one-byte samples.
func (st *latStore) countQuantiles(phis, out []float64) {
	var hist [1 << 8]uint32
	for j := range st.chunks {
		for _, code := range st.filled(j, 1) {
			hist[code]++
		}
	}
	for i, phi := range phis {
		// The code at sorted index rank is the first whose cumulative
		// count exceeds rank.
		rank, code := sketch.RankIndex(phi, st.n), 0
		for seen := int(hist[0]); seen <= rank; seen += int(hist[code]) {
			code++
		}
		out[i] = float64(code)
	}
}

// NewRecording creates a Recording Module for an engine. sketchItems > 0
// stores latency samples in KLL sketches with that accuracy parameter
// (PINTS in Fig 9); 0 keeps raw sample lists. The RNG provides
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
// flow before allocates only when a store needs room: a raw latency store
// takes a new chunk every latChunk/width samples, a util series grows by
// append. A flow a clone shares is copied once, at its first packet after
// the clone (stateOf).
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
	fs := r.flows[flow]
	switch {
	case fs == nil:
		fs = &flowState{slots: make([]querySlot, len(r.engine.slots))}
	case fs.shared:
		fs = fs.unshare(r.clone)
	default:
		return fs
	}
	r.flows[flow] = fs
	return fs
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
		fs.k = int32(pkt.PathLen)
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
				slot.lat[hop-1].add(bits, codeWidth(op.lat.bits))
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
			var err error
			if stores[i].kll, err = sketch.NewKLL(r.sketchItems, r.sketchRNG(q.Name(), flow, i+1)); err != nil {
				return nil, err
			}
		}
	}
	return stores, nil
}

// Evict drops all recorded state for one flow. The hand-off's export is
// its one caller: a flow leaves a Recording no other way.
func (r *Recording) Evict(flow FlowKey) { delete(r.flows, flow) }

// TrackedFlows returns the number of flows with live state.
func (r *Recording) TrackedFlows() int { return len(r.flows) }

// Flows returns every flow with live state in sorted key order, so
// iterating a Recording's flows (reports, snapshot endpoints) is
// deterministic.
func (r *Recording) Flows() []FlowKey {
	out := make([]FlowKey, 0, len(r.flows))
	for f := range r.flows {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// HasFlow reports whether a flow currently has live state — what the
// hand-off asks before it exports a flow and evicts it.
func (r *Recording) HasFlow(flow FlowKey) bool { return r.flows[flow] != nil }

// Clone copies the Recording so that the copy answers every query
// bit-identically to the original at the moment of the copy, and both
// sides can keep recording (or be queried) independently afterwards. This
// is what makes the pipeline's snapshot queries race-free: a shard worker
// clones between batches and hands the copy to concurrent readers.
//
// A clone copies no flow. It shares each flow's state with r and marks
// that flow, not r, as shared; a shared state is never written again.
// Whichever holder next records into the flow — r, the clone, or a clone
// of the clone — first swaps in a private copy of that one flow (stateOf),
// so a clone costs one map entry per flow, and each flow written after it
// pays one copy. What the copy copies and what it shares follows from how
// each piece of state changes. KLL sketches and path decoders still
// peeling are bounded in size and mutated in place, so the copy gets its
// own. A decoder that has decoded its path writes nothing but two counters
// ever again (coding.Decoder's frozen-share rule): the copy takes the
// counters and shares the solved state.
// The two per-packet series — raw latency samples (one code-width
// sample per packet, see latStore) and util values — grow with every
// packet and are append-only: nothing in the repository writes a sample
// once it is stored. The copy therefore shares them. The copy the flow's
// owner makes — r, or any Recording that is not a clone and merged none —
// keeps them as they are, spare capacity included: its appends land past
// every clone's samples, in the shared raw tail chunk too, or in a fresh
// array once the old one is full. A clone's copy takes them as prefixes
// clamped in length AND capacity: a util series as s[:len(s):len(s)],
// whose appends find no spare capacity and reallocate, and a raw latency
// store's chunk list the same way, partly filled tail chunk included,
// whose first write copies its own samples of the tail into a private
// chunk (copy-on-write), never the bytes past them. Neither side observes
// the other, a clone costs O(flows) rather than O(packets), and a held
// clone keeps alive only the flow states, arrays and chunks that existed
// when it was taken.
func (r *Recording) Clone() *Recording {
	c := r.cloneShell(len(r.flows))
	for f, fs := range r.flows {
		c.flows[f] = fs.share()
	}
	return c
}

// CloneFlows is Clone restricted to the listed flows: the copy tracks
// exactly those of them that r tracks, and neither it nor r's next write
// costs anything for any other flow. A flow-scoped snapshot is built from
// it.
func (r *Recording) CloneFlows(flows []FlowKey) *Recording {
	c := r.cloneShell(len(flows))
	for _, f := range flows {
		if fs := r.flows[f]; fs != nil {
			c.flows[f] = fs.share()
		}
	}
	return c
}

// cloneShell returns an empty clone of r: r's engine and configuration,
// room for nFlows flows, and no flows.
func (r *Recording) cloneShell(nFlows int) *Recording {
	c := *r
	c.flows = make(map[FlowKey]*flowState, nFlows)
	c.clone = true
	return &c
}

// share marks fs as held by one more Recording and returns it. A state
// already shared is only read: other goroutines may hold it.
func (fs *flowState) share() *flowState {
	if !fs.shared {
		fs.shared = true
	}
	return fs
}

// unshare returns a private copy of a shared fs to write to (see Clone for
// what is copied and what is shared). The owner's copy keeps the series'
// spare capacity; a clone's copy clamps them.
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
				cs.lat[h] = slot.lat[h].clone(clamp)
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
// makes r one (see Clone): r then shares what o shared.
func (r *Recording) Merge(o *Recording) error {
	if o == nil {
		return nil
	}
	if o.engine != r.engine {
		return fmt.Errorf("core: merging recordings of different engines")
	}
	for f := range o.flows {
		if r.HasFlow(f) {
			return fmt.Errorf("core: merge would duplicate flow %v", f)
		}
	}
	for f, fs := range o.flows {
		r.flows[f] = fs
	}
	r.clone = r.clone || o.clone
	return nil
}

// slot returns flow's state for q: the zero querySlot when the flow is not
// tracked, has not reached q yet, or the engine does not serve q.
func (r *Recording) slot(q Query, flow FlowKey) querySlot {
	fs := r.flows[flow]
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
// preparation once: raw storage ranks its samples once and allocates only
// the result (rawQuantiles: one-byte codes are neither copied nor sorted),
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
	if st.kll != nil {
		if st.kll.Count() == 0 {
			return dst, fmt.Errorf("core: empty sketch for hop %d", hop)
		}
		copy(codes, st.kll.Quantiles(phis...))
	} else {
		if st.n == 0 {
			return dst, fmt.Errorf("core: no samples for hop %d", hop)
		}
		st.rawQuantiles(codeWidth(q.Bits()), phis, codes)
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
	if st.kll != nil {
		return int(st.kll.Count())
	}
	return st.n
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	return r.slot(q, flow).series
}
