package core

import (
	"fmt"
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
	// SketchItems > 0 stores latency samples in KLL sketches with that
	// accuracy parameter (PINTS in Fig 9); 0 keeps raw sample lists.
	SketchItems int
	// WindowBuckets/WindowSpan > 0 switch latency storage to
	// sliding-window sketches so quantiles reflect only the most recent
	// measurements (§4.1's sliding-window option). Requires SketchItems>0.
	WindowBuckets int
	WindowSpan    uint64
	// FreqCounters bounds the Space Saving summary per (flow, hop) for
	// frequent-value queries (Theorem 2's 1/ε counters). Default 16.
	FreqCounters int
	// MaxFlows > 0 bounds the number of flows with live state (§3.3's
	// per-flow space budget at the fleet level): recording a new flow
	// beyond the limit evicts the least-recently-updated one entirely.
	MaxFlows int

	flowSeq map[FlowKey]uint64
	seq     uint64
	// base seeds the recording-side sketches: each (query, flow, hop)
	// store derives its RNG from base deterministically, so a flow's
	// state is independent of cross-flow arrival order — the property
	// that makes the sharded pipeline bit-identical to the serial path.
	base  hash.Seed
	paths map[*PathQuery]map[FlowKey]*coding.Decoder
	lats  map[*LatencyQuery]map[FlowKey][]*latStore
	utils map[*UtilQuery]map[FlowKey][]float64
	freqs map[*FreqQuery]map[FlowKey][]*sketch.SpaceSaving
	cnts  map[*CountQuery]map[FlowKey][]float64
}

type latStore struct {
	raw []uint64
	kll *sketch.KLL
	win *sketch.SlidingKLL
}

// NewRecording creates a Recording Module for an engine. sketchItems > 0
// selects sketched storage (see Recording.SketchItems). The RNG provides
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
		engine:       engine,
		SketchItems:  sketchItems,
		FreqCounters: 16,
		flowSeq:      map[FlowKey]uint64{},
		base:         base,
		paths:        map[*PathQuery]map[FlowKey]*coding.Decoder{},
		lats:         map[*LatencyQuery]map[FlowKey][]*latStore{},
		utils:        map[*UtilQuery]map[FlowKey][]float64{},
		freqs:        map[*FreqQuery]map[FlowKey][]*sketch.SpaceSaving{},
		cnts:         map[*CountQuery]map[FlowKey][]float64{},
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
	return r.record(&pkt)
}

// RecordBatch ingests a batch of sink-extracted digests — the shape shard
// workers and the batch experiment harness drive. Packets that came
// through EncodeHopBatch carry their query-set selection already cached.
func (r *Recording) RecordBatch(batch []PacketDigest) error {
	for i := range batch {
		if err := r.record(&batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// record runs one packet through the compiled program of its query set:
// direct kind dispatch on precomputed ops, no Extracted materialization,
// no type switches on interfaces.
func (r *Recording) record(pkt *PacketDigest) error {
	r.touch(pkt.Flow)
	si := r.engine.setIndexOf(pkt)
	if si < 0 {
		return nil
	}
	ops := r.engine.progs[si].ops
	for i := range ops {
		op := &ops[i]
		bits := pkt.Digest >> op.shift & op.mask
		var err error
		switch op.kind {
		case opPath:
			err = r.recordPath(op.path, pkt, bits)
		case opLatency:
			err = r.recordLatency(op.lat, pkt, bits)
		case opUtil:
			byFlow := r.utils[op.util]
			if byFlow == nil {
				byFlow = map[FlowKey][]float64{}
				r.utils[op.util] = byFlow
			}
			byFlow[pkt.Flow] = append(byFlow[pkt.Flow], op.util.Decode(bits))
		case opFreq:
			err = r.recordFreq(op.freq, pkt, bits)
		case opCount:
			byFlow := r.cnts[op.cnt]
			if byFlow == nil {
				byFlow = map[FlowKey][]float64{}
				r.cnts[op.cnt] = byFlow
			}
			byFlow[pkt.Flow] = append(byFlow[pkt.Flow], op.cnt.Decode(bits))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Recording) recordPath(q *PathQuery, pkt *PacketDigest, bits uint64) error {
	byFlow := r.paths[q]
	if byFlow == nil {
		byFlow = map[FlowKey]*coding.Decoder{}
		r.paths[q] = byFlow
	}
	dec := byFlow[pkt.Flow]
	if dec == nil {
		var err error
		dec, err = q.NewDecoder(pkt.PathLen)
		if err != nil {
			return err
		}
		byFlow[pkt.Flow] = dec
	}
	q.ObserveInto(dec, pkt.PktID, bits)
	return nil
}

func (r *Recording) recordLatency(q *LatencyQuery, pkt *PacketDigest, bits uint64) error {
	byFlow := r.lats[q]
	if byFlow == nil {
		byFlow = map[FlowKey][]*latStore{}
		r.lats[q] = byFlow
	}
	hops := byFlow[pkt.Flow]
	if hops == nil {
		hops = make([]*latStore, pkt.PathLen)
		for i := range hops {
			st := &latStore{}
			switch {
			case r.WindowBuckets > 1 && r.SketchItems > 0:
				win, err := sketch.NewSlidingKLL(r.WindowBuckets,
					r.WindowSpan, r.SketchItems, r.sketchRNG(q.Name(), pkt.Flow, i+1))
				if err != nil {
					return err
				}
				st.win = win
			case r.SketchItems > 0:
				kll, err := sketch.NewKLL(r.SketchItems, r.sketchRNG(q.Name(), pkt.Flow, i+1))
				if err != nil {
					return err
				}
				st.kll = kll
			}
			hops[i] = st
		}
		byFlow[pkt.Flow] = hops
	}
	w := q.Winner(pkt.PktID, pkt.PathLen)
	st := hops[w-1]
	switch {
	case st.win != nil:
		return st.win.Add(float64(bits))
	case st.kll != nil:
		st.kll.Add(float64(bits))
	default:
		st.raw = append(st.raw, bits)
	}
	return nil
}

func (r *Recording) recordFreq(q *FreqQuery, pkt *PacketDigest, bits uint64) error {
	byFlow := r.freqs[q]
	if byFlow == nil {
		byFlow = map[FlowKey][]*sketch.SpaceSaving{}
		r.freqs[q] = byFlow
	}
	hops := byFlow[pkt.Flow]
	if hops == nil {
		hops = make([]*sketch.SpaceSaving, pkt.PathLen)
		for i := range hops {
			ss, err := sketch.NewSpaceSaving(r.FreqCounters)
			if err != nil {
				return err
			}
			hops[i] = ss
		}
		byFlow[pkt.Flow] = hops
	}
	hops[q.Winner(pkt.PktID, pkt.PathLen)-1].Add(bits)
	return nil
}

// touch refreshes a flow's recency and enforces MaxFlows by evicting the
// least-recently-updated flow's state across every query.
func (r *Recording) touch(flow FlowKey) {
	r.seq++
	r.flowSeq[flow] = r.seq
	if r.MaxFlows <= 0 || len(r.flowSeq) <= r.MaxFlows {
		return
	}
	var victim FlowKey
	oldest := ^uint64(0)
	for f, s := range r.flowSeq {
		if s < oldest {
			oldest, victim = s, f
		}
	}
	r.Evict(victim)
}

// Evict drops all recorded state for one flow.
func (r *Recording) Evict(flow FlowKey) {
	delete(r.flowSeq, flow)
	for _, byFlow := range r.paths {
		delete(byFlow, flow)
	}
	for _, byFlow := range r.lats {
		delete(byFlow, flow)
	}
	for _, byFlow := range r.utils {
		delete(byFlow, flow)
	}
	for _, byFlow := range r.freqs {
		delete(byFlow, flow)
	}
	for _, byFlow := range r.cnts {
		delete(byFlow, flow)
	}
}

// TrackedFlows returns the number of flows with live state.
func (r *Recording) TrackedFlows() int { return len(r.flowSeq) }

// Flows returns every flow with live state in sorted key order, so
// iterating a Recording's flows (reports, snapshot endpoints) is
// deterministic.
func (r *Recording) Flows() []FlowKey {
	out := make([]FlowKey, 0, len(r.flowSeq))
	for f := range r.flowSeq {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasFlow reports whether a flow currently has live state — e.g. inside
// an eviction callback, where the flow is still queryable.
func (r *Recording) HasFlow(flow FlowKey) bool {
	_, ok := r.flowSeq[flow]
	return ok
}

// Clone copies the Recording so that the copy answers every query
// bit-identically to the original at the moment of the copy, and both
// sides can keep recording (or be queried) independently afterwards. This
// is what makes the pipeline's snapshot queries race-free: a shard worker
// clones between batches and hands the copy to concurrent readers.
//
// What is copied and what is shared follows from how each piece of state
// changes. Decoders, KLL/SlidingKLL sketches and Space Saving summaries
// are bounded in size and mutated in place, so the clone gets its own.
// The three per-packet series — raw latency samples, util values, count
// values — grow with every packet and are append-only: nothing in the
// repository writes an element once it is appended. The clone therefore
// takes each series as s[:len(s):len(s)], a prefix clamped in length AND
// capacity over the same backing array. The owner's later appends land
// beyond the clone's length (or in a fresh array once the old one is
// full), so they never touch an element the clone can see; the clone's
// own appends find no spare capacity and reallocate, so they never write
// into the owner's array. Neither side observes the other, a clone costs
// O(flows) rather than O(packets), and a held clone keeps alive only the
// backing arrays that existed when it was taken.
func (r *Recording) Clone() *Recording {
	c := r.cloneShell(len(r.flowSeq))
	for f := range r.flowSeq {
		r.cloneFlowInto(c, f)
	}
	return c
}

// CloneFlows is Clone restricted to the listed flows: the copy tracks
// exactly those of them that r tracks, and costs nothing for any other
// flow. A flow-scoped snapshot is built from it.
func (r *Recording) CloneFlows(flows []FlowKey) *Recording {
	c := r.cloneShell(len(flows))
	for _, f := range flows {
		if r.HasFlow(f) {
			r.cloneFlowInto(c, f)
		}
	}
	return c
}

// cloneShell returns a Recording with r's engine, configuration, recency
// clock and per-query tables sized for nFlows flows, and no flows.
func (r *Recording) cloneShell(nFlows int) *Recording {
	c := &Recording{
		engine:        r.engine,
		SketchItems:   r.SketchItems,
		WindowBuckets: r.WindowBuckets,
		WindowSpan:    r.WindowSpan,
		FreqCounters:  r.FreqCounters,
		MaxFlows:      r.MaxFlows,
		seq:           r.seq,
		base:          r.base,
		flowSeq:       make(map[FlowKey]uint64, nFlows),
		paths:         make(map[*PathQuery]map[FlowKey]*coding.Decoder, len(r.paths)),
		lats:          make(map[*LatencyQuery]map[FlowKey][]*latStore, len(r.lats)),
		utils:         make(map[*UtilQuery]map[FlowKey][]float64, len(r.utils)),
		freqs:         make(map[*FreqQuery]map[FlowKey][]*sketch.SpaceSaving, len(r.freqs)),
		cnts:          make(map[*CountQuery]map[FlowKey][]float64, len(r.cnts)),
	}
	for q, byFlow := range r.paths {
		c.paths[q] = make(map[FlowKey]*coding.Decoder, min(nFlows, len(byFlow)))
	}
	for q, byFlow := range r.lats {
		c.lats[q] = make(map[FlowKey][]*latStore, min(nFlows, len(byFlow)))
	}
	for q, byFlow := range r.utils {
		c.utils[q] = make(map[FlowKey][]float64, min(nFlows, len(byFlow)))
	}
	for q, byFlow := range r.freqs {
		c.freqs[q] = make(map[FlowKey][]*sketch.SpaceSaving, min(nFlows, len(byFlow)))
	}
	for q, byFlow := range r.cnts {
		c.cnts[q] = make(map[FlowKey][]float64, min(nFlows, len(byFlow)))
	}
	return c
}

// cloneFlowInto copies one tracked flow's state into c, a cloneShell of
// r (see Clone for what is copied and what is shared).
func (r *Recording) cloneFlowInto(c *Recording, f FlowKey) {
	c.flowSeq[f] = r.flowSeq[f]
	for q, byFlow := range r.paths {
		if dec := byFlow[f]; dec != nil {
			c.paths[q][f] = dec.Clone()
		}
	}
	for q, byFlow := range r.lats {
		hops := byFlow[f]
		if hops == nil {
			continue
		}
		cp := make([]*latStore, len(hops))
		for i, st := range hops {
			if st == nil {
				continue
			}
			cst := &latStore{raw: st.raw[:len(st.raw):len(st.raw)]}
			if st.kll != nil {
				cst.kll = st.kll.Clone()
			}
			if st.win != nil {
				cst.win = st.win.Clone()
			}
			cp[i] = cst
		}
		c.lats[q][f] = cp
	}
	for q, byFlow := range r.utils {
		if vs, ok := byFlow[f]; ok {
			c.utils[q][f] = vs[:len(vs):len(vs)]
		}
	}
	for q, byFlow := range r.freqs {
		hops := byFlow[f]
		if hops == nil {
			continue
		}
		cp := make([]*sketch.SpaceSaving, len(hops))
		for i, ss := range hops {
			if ss != nil {
				cp[i] = ss.Clone()
			}
		}
		c.freqs[q][f] = cp
	}
	for q, byFlow := range r.cnts {
		if vs, ok := byFlow[f]; ok {
			c.cnts[q][f] = vs[:len(vs):len(vs)]
		}
	}
}

// Merge adopts every flow of o into r. The two recordings must serve the
// same engine and must track disjoint flow sets — the shape produced by
// the sharded sink, where a flow's state lives wholly inside one shard —
// so merging is adoption, not sketch arithmetic. o's per-flow state moves
// into r by reference; o must not be used afterwards. Flow recency is
// preserved within o and appended after r's, deterministically.
func (r *Recording) Merge(o *Recording) error {
	if o == nil {
		return nil
	}
	if o.engine != r.engine {
		return fmt.Errorf("core: merging recordings of different engines")
	}
	for f := range o.flowSeq {
		if _, dup := r.flowSeq[f]; dup {
			return fmt.Errorf("core: merge would duplicate flow %v", f)
		}
	}
	// Re-sequence o's flows after r's, in o's own recency order, so the
	// merged recency ranking is independent of map iteration order.
	flows := make([]FlowKey, 0, len(o.flowSeq))
	for f := range o.flowSeq {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return o.flowSeq[flows[i]] < o.flowSeq[flows[j]] })
	for _, f := range flows {
		r.seq++
		r.flowSeq[f] = r.seq
	}
	for q, byFlow := range o.paths {
		dst := r.paths[q]
		if dst == nil {
			dst = map[FlowKey]*coding.Decoder{}
			r.paths[q] = dst
		}
		for f, dec := range byFlow {
			dst[f] = dec
		}
	}
	for q, byFlow := range o.lats {
		dst := r.lats[q]
		if dst == nil {
			dst = map[FlowKey][]*latStore{}
			r.lats[q] = dst
		}
		for f, hops := range byFlow {
			dst[f] = hops
		}
	}
	for q, byFlow := range o.utils {
		dst := r.utils[q]
		if dst == nil {
			dst = map[FlowKey][]float64{}
			r.utils[q] = dst
		}
		for f, vs := range byFlow {
			dst[f] = vs
		}
	}
	for q, byFlow := range o.freqs {
		dst := r.freqs[q]
		if dst == nil {
			dst = map[FlowKey][]*sketch.SpaceSaving{}
			r.freqs[q] = dst
		}
		for f, hops := range byFlow {
			dst[f] = hops
		}
	}
	for q, byFlow := range o.cnts {
		dst := r.cnts[q]
		if dst == nil {
			dst = map[FlowKey][]float64{}
			r.cnts[q] = dst
		}
		for f, vs := range byFlow {
			dst[f] = vs
		}
	}
	return nil
}

// Path answers a path query: the decoded switch IDs and whether decoding
// is complete (Inference Module, static aggregation).
func (r *Recording) Path(q *PathQuery, flow FlowKey) ([]uint64, bool) {
	dec := r.paths[q][flow]
	if dec == nil {
		return nil, false
	}
	vals, ok := dec.Path()
	for _, o := range ok {
		if !o {
			return vals, false
		}
	}
	return vals, true
}

// PathDecoder exposes a flow's decoder for progress inspection.
func (r *Recording) PathDecoder(q *PathQuery, flow FlowKey) *coding.Decoder {
	return r.paths[q][flow]
}

// PathInconsistencies returns the number of packets whose digests
// contradicted the flow's decoded blocks — §7's route-change signal: a
// fully-decoded flow produces inconsistencies with probability 1−2^-q per
// post-change packet, so a short burst is near-certain evidence the path
// moved (e.g. flowlet re-routing or a failover).
func (r *Recording) PathInconsistencies(q *PathQuery, flow FlowKey) int {
	dec := r.paths[q][flow]
	if dec == nil {
		return 0
	}
	return dec.Inconsistent()
}

// RouteChanged applies §7's detection rule: after a flow's path has fully
// decoded, report a change once at least `threshold` inconsistent packets
// arrive (threshold > 1 suppresses the 2^-q-probability hash-collision
// false positives).
func (r *Recording) RouteChanged(q *PathQuery, flow FlowKey, threshold int) bool {
	dec := r.paths[q][flow]
	if dec == nil || !dec.Done() {
		return false
	}
	return dec.Inconsistent() >= threshold
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
// preparation once: raw storage copies and sorts its samples once, a KLL
// sketch builds its weighted list once. A sliding-window store still runs
// one SlidingKLL.Quantile per phi, in the order given — the only query in
// the repository that draws from an RNG, so the order is part of the
// answer.
func (r *Recording) LatencyQuantiles(q *LatencyQuery, flow FlowKey, hop int, phis ...float64) ([]float64, error) {
	hops := r.lats[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return nil, fmt.Errorf("core: no samples for flow %v hop %d", flow, hop)
	}
	st := hops[hop-1]
	var codes []float64
	if st.win != nil {
		if st.win.WindowCount() == 0 {
			return nil, fmt.Errorf("core: empty window for hop %d", hop)
		}
		codes = make([]float64, len(phis))
		for i, phi := range phis {
			code, err := st.win.Quantile(phi)
			if err != nil {
				return nil, err
			}
			codes[i] = code
		}
	} else if st.kll != nil {
		if st.kll.Count() == 0 {
			return nil, fmt.Errorf("core: empty sketch for hop %d", hop)
		}
		codes = st.kll.Quantiles(phis...)
	} else {
		if len(st.raw) == 0 {
			return nil, fmt.Errorf("core: no samples for hop %d", hop)
		}
		fs := make([]float64, len(st.raw))
		for i, c := range st.raw {
			fs[i] = float64(c)
		}
		sort.Float64s(fs)
		codes = make([]float64, len(phis))
		for i, phi := range phis {
			codes[i] = sketch.SortedQuantile(fs, phi)
		}
	}
	for i, code := range codes {
		codes[i] = q.Decode(uint64(code + 0.5))
	}
	return codes, nil
}

// LatencySamples returns how many samples hop `hop` has accumulated.
func (r *Recording) LatencySamples(q *LatencyQuery, flow FlowKey, hop int) int {
	hops := r.lats[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return 0
	}
	st := hops[hop-1]
	switch {
	case st.win != nil:
		return int(st.win.WindowCount())
	case st.kll != nil:
		return int(st.kll.Count())
	default:
		return len(st.raw)
	}
}

// LatencyStorageBytes reports the per-flow storage a latency query uses,
// assuming each stored item is the query's digest width (Fig 9's
// sketch-size axis).
func (r *Recording) LatencyStorageBytes(q *LatencyQuery, flow FlowKey) int {
	hops := r.lats[q][flow]
	total := 0
	for _, st := range hops {
		if st == nil {
			continue
		}
		if st.kll != nil {
			total += st.kll.SizeBytes(q.Bits())
		} else {
			total += (len(st.raw)*q.Bits() + 7) / 8
		}
	}
	return total
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	return r.utils[q][flow]
}

// FrequentValues answers a frequent-values query (Theorem 2): the values
// appearing in at least a theta-fraction of hop `hop`'s sampled stream.
func (r *Recording) FrequentValues(q *FreqQuery, flow FlowKey, hop int, theta float64) []sketch.HeavyHitter {
	hops := r.freqs[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return nil
	}
	return hops[hop-1].HeavyHitters(theta)
}

// FreqSamples returns the number of samples a frequent-values query has
// for a hop.
func (r *Recording) FreqSamples(q *FreqQuery, flow FlowKey, hop int) int {
	hops := r.freqs[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return 0
	}
	return int(hops[hop-1].Count())
}

// CountSeries answers a randomized-counting query: the decoded per-packet
// count estimates in arrival order. The mean of the series is an unbiased
// estimate of the expected per-packet count.
func (r *Recording) CountSeries(q *CountQuery, flow FlowKey) []float64 {
	return r.cnts[q][flow]
}
