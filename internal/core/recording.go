package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

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
	k     int
	slots []querySlot
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
// wire: ⌈bits/8⌉ bytes per sample, little-endian, packed back to back in
// raw (the benchmark plan's 8-bit codes cost one byte each). It is
// append-only, which is what lets a Clone share it as a prefix.
type latStore struct {
	raw   []byte
	width int // bytes per raw sample, fixed from the query at creation
	kll   *sketch.KLL
}

// codeWidth is the bytes one raw sample of a bits-wide code occupies.
func codeWidth(bits int) int { return (bits + 7) / 8 }

func (st *latStore) samples() int { return len(st.raw) / st.width }

func (st *latStore) code(i int) uint64 {
	if st.width == 1 {
		return uint64(st.raw[i])
	}
	var b [8]byte
	copy(b[:], st.raw[i*st.width:(i+1)*st.width])
	return binary.LittleEndian.Uint64(b[:])
}

func (st *latStore) add(code uint64) {
	switch {
	case st.kll != nil:
		st.kll.Add(float64(code))
	case st.width == 1: // the 8-bit plan's case, ~5 ns a packet cheaper than the general append
		st.raw = append(st.raw, byte(code))
	default:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], code)
		st.raw = append(st.raw, b[:st.width]...)
	}
}

// clone shares the raw samples as a capacity-clamped prefix (always a
// whole number of samples: add appends a sample in one step) and copies
// the sketch, which is mutated in place.
func (st *latStore) clone() latStore {
	c := latStore{raw: st.raw[:len(st.raw):len(st.raw)], width: st.width}
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
func (st *latStore) rawQuantiles(phis, out []float64) {
	switch {
	case st.width == 1:
		st.countQuantiles(phis, out)
	case st.width == 2:
		sortQuantiles[uint16](st, phis, out)
	case st.width <= 4:
		sortQuantiles[uint32](st, phis, out)
	default:
		sortQuantiles[uint64](st, phis, out)
	}
}

func sortQuantiles[T uint16 | uint32 | uint64](st *latStore, phis, out []float64) {
	sorted := make([]T, st.samples())
	for i := range sorted {
		sorted[i] = T(st.code(i))
	}
	slices.Sort(sorted)
	for i, phi := range phis {
		out[i] = float64(sorted[sketch.RankIndex(phi, len(sorted))])
	}
}

// countQuantiles is rawQuantiles for one-byte samples.
func (st *latStore) countQuantiles(phis, out []float64) {
	var hist [1 << 8]uint32
	for _, code := range st.raw {
		hist[code]++
	}
	for i, phi := range phis {
		// The code at sorted index rank is the first whose cumulative
		// count exceeds rank.
		rank, code := sketch.RankIndex(phi, len(st.raw)), 0
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
// flow before allocates only when a series grows.
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

// stateOf returns flow's state, starting it if the flow is new.
func (r *Recording) stateOf(flow FlowKey) *flowState {
	fs := r.flows[flow]
	if fs == nil {
		fs = &flowState{slots: make([]querySlot, len(r.engine.slots))}
		r.flows[flow] = fs
	}
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
		fs.k = pkt.PathLen
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
				if slot.dec, err = op.path.NewDecoder(fs.k); err != nil {
					return err
				}
			}
			op.path.ObserveInto(slot.dec, pkt.PktID, bits)
		case opLatency:
			if slot.lat == nil {
				if slot.lat, err = r.newLatStores(op.lat, pkt.Flow, fs.k); err != nil {
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
	for i := range stores {
		st := &stores[i]
		st.width = codeWidth(q.Bits())
		if r.sketchItems > 0 {
			var err error
			if st.kll, err = sketch.NewKLL(r.sketchItems, r.sketchRNG(q.Name(), flow, i+1)); err != nil {
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
// What is copied and what is shared follows from how each piece of state
// changes. KLL sketches and path decoders still peeling are bounded in
// size and mutated in place, so the clone gets its own. A decoder that has
// decoded its path writes nothing but two counters ever again
// (coding.Decoder's frozen-share rule): the clone takes the counters and
// shares the solved state.
// The two per-packet series — raw latency samples (one code-width
// sample per packet, see latStore) and util values — grow with
// every packet and are append-only: nothing in the repository writes an
// element once it is appended. The clone therefore takes each series as
// s[:len(s):len(s)], a prefix clamped in length AND capacity over the
// same backing array. The owner's later appends land beyond the clone's
// length (or in a fresh array once the old one is full), so they never
// touch an element the clone can see; the clone's own appends find no
// spare capacity and reallocate, so they never write into the owner's
// array. Neither side observes the other, a clone costs O(flows) rather
// than O(packets), and a held clone keeps alive only the backing arrays
// that existed when it was taken.
func (r *Recording) Clone() *Recording {
	c := r.cloneShell(len(r.flows))
	for f, fs := range r.flows {
		c.flows[f] = fs.clone()
	}
	return c
}

// CloneFlows is Clone restricted to the listed flows: the copy tracks
// exactly those of them that r tracks, and costs nothing for any other
// flow. A flow-scoped snapshot is built from it.
func (r *Recording) CloneFlows(flows []FlowKey) *Recording {
	c := r.cloneShell(len(flows))
	for _, f := range flows {
		if fs := r.flows[f]; fs != nil {
			c.flows[f] = fs.clone()
		}
	}
	return c
}

// cloneShell returns a Recording with r's engine and configuration, room
// for nFlows flows, and no flows.
func (r *Recording) cloneShell(nFlows int) *Recording {
	c := *r
	c.flows = make(map[FlowKey]*flowState, nFlows)
	return &c
}

// clone copies one flow's state (see Clone for what is copied and what is
// shared).
func (fs *flowState) clone() *flowState {
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
		cs.series = slot.series[:len(slot.series):len(slot.series)]
	}
	return c
}

// Merge adopts every flow of o into r. The two recordings must serve the
// same engine and must track disjoint flow sets — the shape produced by
// the sharded sink, where a flow's state lives wholly inside one shard —
// so merging is adoption, not sketch arithmetic. o's per-flow state moves
// into r by reference; o must not be used afterwards.
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
		if len(st.raw) == 0 {
			return dst, fmt.Errorf("core: no samples for hop %d", hop)
		}
		st.rawQuantiles(phis, codes)
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
	return st.samples()
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	return r.slot(q, flow).series
}
