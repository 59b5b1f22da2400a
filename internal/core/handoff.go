package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/coding"
	"repro/internal/sketch"
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

// Per-hop store kinds inside a latency section: raw (an empty store), KLL,
// or a store's code counts. Kind 3, once a sliding-window sketch, is
// unassigned: a blob that carries it is refused by number.
const (
	storeRaw  byte = 1
	storeKLL  byte = 2
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
// store per hop — its kind, then for a sketch its length-prefixed state. A
// nonempty counting store travels as a histogram (appendHist), its bytes
// independent of how its tail and histogram split its samples; an empty
// one travels raw, as a count of 0.
func appendLatStores(dst []byte, stores []latStore) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(stores)))
	for i := range stores {
		switch st := &stores[i]; {
		case st.kll() != nil:
			at := len(dst) + 1
			dst = prefixLen(st.kll().AppendState(append(dst, storeKLL)), at)
		case st.samples() > 0:
			dst = appendHist(dst, st)
		default:
			dst = append(dst, storeRaw, 0)
		}
	}
	return dst
}

// appendHist writes a nonempty counting store as kind 4: the counts of
// all its samples, folded or in its tail, for the codes
// lo to hi, the lowest and highest among them, as lo, hi-lo+1 and one
// uvarint count per code.
func appendHist(dst []byte, st *latStore) []byte {
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
	if !r.HasFlow(flow) {
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
		slot := r.slot(q, flow)
		if slot.dec == nil && slot.lat == nil && slot.series == nil {
			continue
		}
		// A section is its query's name, its kind, and the length-prefixed
		// payload — one field of a slot is live, the one q's kind uses —
		// encoded where it lands in dst.
		name := q.Name()
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(append(dst, name...), kind)
		at := len(dst)
		switch {
		case slot.dec != nil:
			dst = slot.dec.AppendState(dst)
		case slot.lat != nil:
			dst = appendLatStores(dst, slot.lat)
		default:
			dst = appendFloatSeries(dst, slot.series)
		}
		dst = prefixLen(dst, at)
		sections++
	}
	dst[countAt] = byte(sections)
	return dst, nil
}

// RestoreFlowState rebuilds a flow's state from an AppendFlowState blob
// and adopts it as Merge adopts a flow — the fold the federation frontend
// applies to member snapshots. queries resolves section names to this
// Recording's compiled queries, in the order AppendFlowState was given
// them: sections must name queries strictly in that order. A flow r
// already tracks (a flow's state must never split across two recordings)
// and a blob no Recording of this plan could have produced are errors
// that leave r untouched.
func (r *Recording) RestoreFlowState(queries []Query, flow FlowKey, data []byte) error {
	byName := make(map[string]int, len(queries))
	for i, q := range queries {
		byName[q.Name()] = i
	}
	fs := &flowState{slots: make([]querySlot, len(r.engine.slots))}
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
		slot := &fs.slots[si]
		var err error
		switch q := q.(type) {
		case *PathQuery:
			slot.dec, err = restoreDecoder(q, payload)
		case *LatencyQuery:
			slot.lat, err = restoreLatStores(q, flow, payload)
		default:
			slot.series, err = restoreFloatSeries(payload)
		}
		if err != nil {
			return fmt.Errorf("core: query %q: %w", name, err)
		}
		// Every per-hop section is sized by the flow's path length (see
		// flowState.k); the first one to state a hop count restores it.
		if hops := slot.hops(); hops > 0 {
			if fs.k == 0 && hops <= math.MaxInt16 {
				fs.k = int16(hops)
			}
			if hops != int(fs.k) {
				return fmt.Errorf("core: flow %d query %q: state for %d hops, the flow's path length is %d",
					flow, name, hops, fs.k)
			}
		}
	}
	if err := rd.Done(); err != nil {
		return err
	}
	if r.HasFlow(flow) {
		return fmt.Errorf("core: merge would duplicate flow %v", flow)
	}
	r.index()[flow] = fs
	return nil
}

func restoreDecoder(q *PathQuery, payload []byte) (*coding.Decoder, error) {
	k, err := coding.StateK(payload)
	if err != nil {
		return nil, err
	}
	dec, err := q.NewDecoder(k)
	if err != nil {
		return nil, err
	}
	return dec, dec.RestoreState(payload)
}

// restoreLatStores decodes a latency section for q. A code q's digest slice
// could not have carried is rejected here rather than truncated into some
// other code.
func restoreLatStores(q *LatencyQuery, flow FlowKey, payload []byte) ([]latStore, error) {
	rd := stateread.New(flowStateWhat, payload)
	n := rd.Uvarint()
	if rd.Err != nil {
		return nil, rd.Err
	}
	if n > uint64(rd.Len())+1 {
		return nil, fmt.Errorf("core: latency section claims %d stores", n)
	}
	stores := make([]latStore, n)
	for i := range stores {
		st := &stores[i]
		kind := rd.Bytes(1)
		if rd.Err != nil {
			return nil, rd.Err
		}
		var err error
		switch kind[0] {
		case storeRaw:
			err = restoreRaw(rd, flow, i+1)
		case storeHist:
			st.sum, err = restoreHist(rd, q, flow, i+1)
			st.lo = tailClosed
		case storeKLL:
			sub := rd.Bytes(rd.Uvarint())
			if rd.Err != nil {
				return nil, rd.Err
			}
			var kll *sketch.KLL
			if kll, err = sketch.RestoreKLL(sub); err == nil {
				*st = latStore{sum: &latSum{kll: kll}, lo: tailClosed}
			}
		default:
			err = fmt.Errorf("core: latency store kind %d", kind[0])
		}
		if err != nil {
			return nil, err
		}
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return stores, nil
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
		if c > maxLatSamples-uint64(sum.n) {
			return nil, fmt.Errorf("core: flow %d hop %d: latency histogram counts more than 2^62 samples", flow, hop)
		}
		sum.counts[j] = c
		sum.n += int(c)
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
