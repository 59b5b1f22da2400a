package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/coding"
	"repro/internal/stateread"
)

// Per-flow state hand-off for fleet resize. AppendFlowState drains one
// flow's complete recording state — path decoders, latency stores, util
// series — into an opaque blob; RestoreFlowState rebuilds that state on
// another Recording and folds it in through the same Merge the federation
// frontend uses, so a resized fleet's answers are byte-identical to a fleet
// that ran at the new membership from the start. Sections are keyed by
// query *name* (query pointers are process-local), resolved against the
// destination's own compiled query list; an unknown name or mismatched
// plan geometry is an error, never a silent drop.
//
// Blob layout (uvarint-based, strict full-consumption decode):
//
//	version (1) | sections uvarint |
//	  sections × { nameLen uvarint | name | kind byte | payloadLen uvarint | payload }
//
// The version has not moved since latency stores began to travel as counts
// (store kind 4). A raw store (kind 1) is an empty one only, so an older
// build's blob with raw samples is refused here, and an older build refuses
// kind 4 below 128 samples. Source and destination of a hand-off must run
// one build.
//
// Section kinds, one per query family. Kinds 4 and 5, once the frequent-value
// and randomized-count families, are unassigned: no query's kind matches them,
// so a blob that carries one is refused by number.
const (
	flowStateVersion      = 1
	sectionPath      byte = 1
	sectionLatency   byte = 2
	sectionUtil      byte = 3
)

// flowStateWhat opens every error the blob's reader produces.
const flowStateWhat = "core: flow state"

// Per-hop store kinds inside a latency section: raw (an empty store) or a
// store's code counts. Kinds 2 and 3, once a KLL sketch and a
// sliding-window sketch, are unassigned: a blob that carries either is
// refused by number.
const (
	storeRaw  byte = 1
	storeHist byte = 4
)

// prefixLen turns dst[at:] into a length-prefixed field where it sits:
// the bytes move up by the width of their uvarint length, which is written
// where they began. A writer appends a variable-length payload straight
// into its output and then calls this, instead of building the payload in a
// buffer of its own just to learn its length first.
func prefixLen(dst []byte, at int) []byte {
	n := len(dst) - at
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], uint64(n))
	dst = append(dst, pre[:w]...)
	copy(dst[at+w:], dst[at:at+n])
	copy(dst[at:], pre[:w])
	return dst
}

func appendFloatSeries(dst []byte, series []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(series)))
	for _, v := range series {
		dst = binary.AppendUvarint(dst, math.Float64bits(v))
	}
	return dst
}

// sectionKind maps a query to its family's section kind, 0 for a type that
// is none of the three.
func sectionKind(q Query) byte {
	switch q.(type) {
	case *PathQuery:
		return sectionPath
	case *LatencyQuery:
		return sectionLatency
	case *UtilQuery:
		return sectionUtil
	}
	return 0
}

// appendLatStores is a latency section's payload: the hop count, then one
// store per hop. A nonempty store travels as a histogram (appendHist), its
// bytes independent of how its tail and histogram split its samples; an
// empty one travels raw, as a count of 0.
func appendLatStores(dst []byte, e *Engine, fs *flowState, pl *slotPlace) []byte {
	dst = binary.AppendUvarint(dst, uint64(fs.k()))
	for hop := 1; hop <= fs.k(); hop++ {
		if st := fs.store(e, pl, hop); st.samples() > 0 {
			dst = appendHist(dst, st)
		} else {
			dst = append(dst, storeRaw, 0)
		}
	}
	return dst
}

// appendHist writes a nonempty store as kind 4: the counts of
// all its samples, folded or in its tail, for the codes
// lo to hi, the lowest and highest among them, as lo, hi-lo+1 and one
// uvarint count per code.
func appendHist(dst []byte, st latStore) []byte {
	var hist [1 << 8]uint64
	st.countInto(&hist)
	lo := slices.IndexFunc(hist[:], func(c uint64) bool { return c != 0 })
	hi := len(hist) - 1
	for hist[hi] == 0 {
		hi--
	}
	dst = append(dst, storeHist)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(lo)), uint64(hi-lo+1))
	for _, c := range hist[lo : hi+1] {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

// AppendFlowState appends flow's complete recording state to dst. The
// queries slice fixes the section order (sections appear in query order,
// queries with no state for the flow are skipped). The flow must be
// tracked.
func (r *Recording) AppendFlowState(dst []byte, queries []Query, flow FlowKey) ([]byte, error) {
	fs, ok := r.find(flow)
	if !ok {
		return dst, fmt.Errorf("core: flow %d is not tracked", flow)
	}
	dst = append(dst, flowStateVersion)
	countAt := len(dst)
	dst = append(dst, 0) // section count backfilled below (fits a byte: one section per query)
	if len(queries) > 127 {
		return dst, fmt.Errorf("core: %d queries exceed the flow-state section budget", len(queries))
	}
	sections := 0
	for _, q := range queries {
		kind := sectionKind(q)
		if kind == 0 {
			return dst, fmt.Errorf("core: flow state for unknown query type %T", q)
		}
		i, ok := r.engine.slots[q]
		if !ok || !fs.started(i) {
			continue
		}
		// A section is its query's name, its kind, and the length-prefixed
		// payload, encoded where it lands in dst.
		pl := &r.engine.places[i]
		name := q.Name()
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(append(dst, name...), kind)
		at := len(dst)
		switch pl.kind {
		case opPath:
			var dec coding.Decoder
			fs.bindDecoder(&dec, pl)
			dst = dec.AppendState(dst)
		case opLatency:
			dst = appendLatStores(dst, r.engine, &fs, pl)
		default:
			dst = appendFloatSeries(dst, fs.series(pl))
		}
		dst = prefixLen(dst, at)
		sections++
	}
	dst[countAt] = byte(sections)
	return dst, nil
}

// RestoreFlowState rebuilds a flow's state from an AppendFlowState blob
// and installs it in r, which must record (a view refuses) — the fold the
// federation frontend applies to member snapshots. queries resolves section names to this
// Recording's compiled queries, in the order AppendFlowState was given
// them: sections must name queries strictly in that order. A flow r
// already tracks (a flow's state must never split across two recordings)
// and a blob no Recording of this plan could have produced are errors
// that leave r untouched.
func (r *Recording) RestoreFlowState(queries []Query, flow FlowKey, data []byte) (err error) {
	if !r.records() {
		return errView
	}
	byName := make(map[string]int, len(queries))
	for i, q := range queries {
		byName[q.Name()] = i
	}
	e, a := r.engine, r.own()
	// The flow is built in a block of its own, laid out as the blob says,
	// which joins the table last or, on an error, is freed.
	lay := e.restoredLayout(data)
	off, w := a.cut(flow, e.blockWords(lay))
	w[hdrK] = lay
	fs := &flowState{w: w, ps: &a.pageSet, a: a, off: off}
	defer func() {
		if err != nil {
			a.drop(fs.off)
		}
	}()
	rd := stateread.New(flowStateWhat, data)
	if v := rd.Uvarint(); rd.Err == nil && v != flowStateVersion {
		return fmt.Errorf("core: flow state version %d (have %d)", v, flowStateVersion)
	}
	sections := rd.Uvarint()
	if rd.Err != nil {
		return rd.Err
	}
	if sections > uint64(len(queries)) {
		return fmt.Errorf("core: flow state has %d sections for %d queries", sections, len(queries))
	}
	last := -1
	for s := uint64(0); s < sections; s++ {
		name := string(rd.Bytes(rd.Uvarint()))
		kindB := rd.Bytes(1)
		payload := rd.Bytes(rd.Uvarint())
		if rd.Err != nil {
			return rd.Err
		}
		kind := kindB[0]
		at, ok := byName[name]
		if !ok {
			return fmt.Errorf("core: flow state references unknown query %q", name)
		}
		if at <= last {
			return fmt.Errorf("core: flow state section %q out of query order", name)
		}
		last = at
		q := queries[at]
		si, ok := r.engine.slots[q]
		if !ok {
			return fmt.Errorf("core: query %q is not in this recording's plan", name)
		}
		if want := sectionKind(q); kind != want {
			return fmt.Errorf("core: query %q: section kind %d, want %d", name, kind, want)
		}
		pl := &e.places[si]
		switch q := q.(type) {
		case *PathQuery:
			err = restoreDecoder(fs, e, pl, flow, payload)
		case *LatencyQuery:
			err = restoreLatStores(fs, e, pl, q, flow, payload)
		default:
			var series []float64
			if series, err = restoreFloatSeries(payload); err == nil {
				fs.setSeries(e, pl, series)
			}
		}
		if err != nil {
			return fmt.Errorf("core: query %q: %w", name, err)
		}
		fs.start(si)
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if r.HasFlow(flow) {
		return fmt.Errorf("core: merge would duplicate flow %v", flow)
	}
	a.insert(fs.off)
	return nil
}

// restoredLayout reads the layout RestoreFlowState cuts a blob's block
// for, before it checks the blob: k from the first per-hop section that
// states a hop count within the bounds the check holds it to, and rowless
// when every path query's section claims a decoded path
// (Recording.recordRun). A blob with no per-hop section gets a block with
// no per-hop state; one the check refuses, a block that is freed.
func (e *Engine) restoredLayout(data []byte) (lay uint64) {
	rd := stateread.New(flowStateWhat, data)
	rd.Uvarint()
	decoded := 0
	for s := rd.Uvarint(); s > 0 && rd.Err == nil; s-- {
		rd.Bytes(rd.Uvarint())
		kind, payload := rd.Bytes(1), rd.Bytes(rd.Uvarint())
		if rd.Err != nil {
			break
		}
		hops := 0
		switch kind[0] {
		case sectionPath:
			k, done, err := coding.PeekState(payload)
			if err == nil && done {
				decoded++
			}
			if err == nil && k <= coding.MaxPathLen {
				hops = k
			}
		case sectionLatency:
			pr := stateread.New(flowStateWhat, payload)
			if n := pr.Uvarint(); pr.Err == nil && n <= uint64(pr.Len())+1 {
				hops = int(n)
			}
		}
		if lay == 0 && hops >= 1 && hops <= math.MaxInt16 {
			lay = uint64(hops)
		}
	}
	if e.rowsPerHop > 0 && decoded == e.kinds[opPath] {
		lay |= rowless
	}
	return lay
}

// sizeFlow checks that a per-hop section states the flow's path length,
// which restoredLayout laid the flow's block out for. No recording writes
// state for 0 hops.
func sizeFlow(fs *flowState, flow FlowKey, hops int) error {
	if hops < 1 {
		return fmt.Errorf("core: flow %d: state for %d hops, a path length no recording takes", flow, hops)
	}
	if hops != fs.k() {
		return fmt.Errorf("core: flow %d: state for %d hops, the flow's path length is %d", flow, hops, fs.k())
	}
	return nil
}

// restoreDecoder restores a path section into the flow's decoder words.
func restoreDecoder(fs *flowState, e *Engine, pl *slotPlace, flow FlowKey, payload []byte) error {
	k, _, err := coding.PeekState(payload)
	if err != nil {
		return err
	}
	if k > coding.MaxPathLen {
		return fmt.Errorf("core: flow %d: path length %d out of [1,%d]", flow, k, coding.MaxPathLen)
	}
	if err := sizeFlow(fs, flow, k); err != nil {
		return err
	}
	var dec coding.Decoder
	fs.bindDecoder(&dec, pl)
	if err := dec.RestoreState(payload); err != nil {
		return err
	}
	fs.keepSlab(pl, dec.Slab())
	return nil
}

// restoreLatStores decodes a latency section for q into the flow's
// stores. A code q's digest slice could not have carried is rejected here
// rather than truncated into some other code.
func restoreLatStores(fs *flowState, e *Engine, pl *slotPlace, q *LatencyQuery, flow FlowKey, payload []byte) error {
	rd := stateread.New(flowStateWhat, payload)
	n := rd.Uvarint()
	if rd.Err != nil {
		return rd.Err
	}
	if n > uint64(rd.Len())+1 {
		return fmt.Errorf("core: latency section claims %d stores", n)
	}
	if err := sizeFlow(fs, flow, int(n)); err != nil {
		return err
	}
	for hop := 1; hop <= int(n); hop++ {
		st := fs.store(e, pl, hop)
		kind := rd.Bytes(1)
		if rd.Err != nil {
			return rd.Err
		}
		var err error
		switch kind[0] {
		case storeRaw:
			err = restoreRaw(rd, flow, hop)
		case storeHist:
			var sum *latSum
			if sum, err = restoreHist(rd, q, flow, hop); err == nil {
				st.setSum(sum)
				st.setTail(tailClosed, [latTail]uint8{})
			}
		default:
			err = fmt.Errorf("core: latency store kind %d", kind[0])
		}
		if err != nil {
			return err
		}
	}
	return rd.Done()
}

// restoreRaw reads a raw store, which is an empty one: a count of 0.
func restoreRaw(rd *stateread.Reader, flow FlowKey, hop int) error {
	if cnt := rd.Uvarint(); rd.Err == nil && cnt > 0 {
		return fmt.Errorf("core: flow %d hop %d: %d raw one-byte latency samples, which this build takes only as counts (store kind %d); the blob is corrupt or from another build, and a hand-off needs members of one build",
			flow, hop, cnt, storeHist)
	}
	return rd.Err
}

// restoreHist reads the counts appendHist writes: codes within q's bits,
// trimmed to a nonzero first and last count, at least one sample and at
// most maxLatSamples. They become the store's histogram, with an empty
// tail whose window stays closed until its first sample checks the cap.
func restoreHist(rd *stateread.Reader, q *LatencyQuery, flow FlowKey, hop int) (*latSum, error) {
	lo, span := rd.Uvarint(), rd.Uvarint()
	if rd.Err != nil {
		return nil, rd.Err
	}
	if mask := digestMask(q.Bits()); lo > mask || span > mask-lo+1 {
		return nil, fmt.Errorf("core: flow %d hop %d: latency histogram of codes %d to %d does not fit %d bits",
			flow, hop, lo, lo+span-1, q.Bits())
	}
	sum := &latSum{lo: int(lo), counts: make([]uint64, span)}
	for j := range sum.counts {
		c := rd.Uvarint()
		if c > maxLatSamples-sum.n {
			return nil, fmt.Errorf("core: flow %d hop %d: latency histogram counts more than 2^62 samples", flow, hop)
		}
		sum.counts[j] = c
		sum.n += c
	}
	switch {
	case rd.Err != nil:
		return nil, rd.Err
	case sum.n == 0:
		return nil, fmt.Errorf("core: flow %d hop %d: latency histogram of 0 samples, which travel raw", flow, hop)
	case sum.counts[0] == 0 || sum.counts[span-1] == 0:
		return nil, fmt.Errorf("core: flow %d hop %d: latency histogram not trimmed to its first and last code", flow, hop)
	}
	return sum, nil
}

func restoreFloatSeries(payload []byte) ([]float64, error) {
	rd := stateread.New(flowStateWhat, payload)
	n := rd.Uvarint()
	if rd.Err != nil {
		return nil, rd.Err
	}
	if n > uint64(rd.Len())+1 {
		return nil, fmt.Errorf("core: series claims %d values", n)
	}
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Float64frombits(rd.Uvarint())
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return series, nil
}
