package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/coding"
)

// Per-flow state hand-off for fleet resize. A flow's state is its block
// in its Recording's arena and, for some flows, a side entry (flowState),
// and its hand-off image is those words: AppendFlowState writes them, and
// RestoreFlowState checks an image and copies it into a block of its own
// in another Recording of the same plan, so the flow records and answers
// there exactly as it would have at its source, and a resized fleet's
// answers are byte-identical to a fleet that ran at the new membership
// from the start. The image is the block's layout, so both ends of a
// hand-off run one build, and its plan hash is the engine's.
//
// Image layout, little-endian 64-bit words:
//
//	version (3) | Engine.PlanHash |
//	  the block, its hold word 0 and every latency tail's shared mark clear |
//	  if the flow has a side entry, per started query slot in slot order:
//	    path:    its slab, as a run (empty once the path decodes)
//	    latency: per hop, its histogram as a run: empty, or lo and the counts
//	    util:    its values' float64 bits, as a run
//
// where a run is its length in words, then those words. A histogram whose
// every count fits 32 bits packs them two to a word, the first in the low
// half and a zero high half after an odd last one, and sets packedRun in
// its length word; otherwise each count is a word. The first byte of a
// hand-off state is its version in every format this build or an older
// one wrote, so a state of another format is refused by number.
const imageVersion = 3

// packedRun is the length-word flag of a run of 32-bit counts.
const packedRun = 1 << 63

// appendWords appends ws to dst as little-endian words.
func appendWords(dst []byte, ws ...uint64) []byte {
	for _, w := range ws {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// word returns an image's i-th word.
func word(data []byte, i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }

// AppendFlowState appends the image of flow's complete recording state to
// dst, which it returns unchanged on error. The flow must be tracked.
func (r *Recording) AppendFlowState(dst []byte, flow FlowKey) ([]byte, error) {
	fs, ok := r.find(flow)
	if !ok {
		return dst, fmt.Errorf("core: flow %d is not tracked", flow)
	}
	// The hold word, which readers' Releases write with atomics, is
	// written as 0 without being read.
	e, k, at := r.engine, fs.k(), len(dst)+8*2
	dst = appendWords(appendWords(dst, imageVersion, e.PlanHash(), fs.w[hdrKey], 0), fs.w[hdrK:]...)
	for i := range e.places {
		if pl := &e.places[i]; pl.kind == opLatency && fs.started(i) {
			for t := at + 8*pl.at(k); t < at+8*(pl.at(k)+tailWords*k); t += 8 * tailWords {
				binary.LittleEndian.PutUint64(dst[t:], word(dst[t:], 0)&^markShared)
			}
		}
	}
	if fs.side() == 0 {
		return dst, nil
	}
	for i := range e.places {
		if !fs.started(i) {
			continue
		}
		switch pl := &e.places[i]; pl.kind {
		case opPath:
			slab := fs.slab(pl.ord)
			dst = appendWords(appendWords(dst, uint64(len(slab))), slab...)
		case opLatency:
			for hop := 1; hop <= k; hop++ {
				dst = appendHist(dst, fs.store(e, pl, hop).sum())
			}
		default:
			series := fs.series(pl)
			dst = appendWords(dst, uint64(len(series)))
			for _, v := range series {
				dst = appendWords(dst, math.Float64bits(v))
			}
		}
	}
	return dst, nil
}

// appendHist appends a store's histogram as a run: empty for none, lo and
// the counts packed two to a word when every one fits 32 bits, one to a
// word otherwise.
func appendHist(dst []byte, sum *latSum) []byte {
	if sum == nil {
		return appendWords(dst, 0)
	}
	if slices.Max(sum.counts) > math.MaxUint32 {
		return appendWords(appendWords(dst, uint64(1+len(sum.counts)), uint64(sum.lo)), sum.counts...)
	}
	dst = appendWords(dst, packedRun|uint64(1+(len(sum.counts)+1)/2), uint64(sum.lo))
	for i := 0; i < len(sum.counts); i += 2 {
		w := sum.counts[i]
		if i+1 < len(sum.counts) {
			w |= sum.counts[i+1] << 32
		}
		dst = appendWords(dst, w)
	}
	return dst
}

// RestoreFlowState installs flow's state from an AppendFlowState image in
// r, which must record (a view refuses). The image must be one a Recording
// of r's plan could have written for the flow; it is checked, not parsed:
// its version and plan hash; its block's key, path length and started
// query slots; every unstarted slot's words zero; its side entries exactly
// those of the started slots, with nothing left over; the candidate rows
// held exactly until every path decoder is done; each decoder's state one
// observing could have reached (coding.Plan.Check); and each latency
// store's tail and histogram ones counting could have left, within the
// query's codes. A flow r already tracks (a flow's state must never split
// across two recordings) and an image the check refuses are errors that
// leave r tracking what it did, with any block the check was given back
// on its arena's free list.
func (r *Recording) RestoreFlowState(flow FlowKey, data []byte) error {
	if !r.records() {
		return errView
	}
	e := r.engine
	switch {
	case len(data) > 0 && data[0] != imageVersion:
		return fmt.Errorf("core: flow state version %d (have %d)", data[0], imageVersion)
	case len(data)%8 != 0 || len(data) < 8*(2+hdrK+1):
		return fmt.Errorf("core: flow state of %d bytes is no image", len(data))
	case word(data, 0) != imageVersion:
		return fmt.Errorf("core: flow state version word %#x", word(data, 0))
	case word(data, 1) != e.PlanHash():
		return fmt.Errorf("core: flow state of plan %016x, this recording's is %016x", word(data, 1), e.PlanHash())
	case FlowKey(word(data, 2+hdrKey)) != flow:
		return fmt.Errorf("core: flow state of flow %d, restored as flow %d", word(data, 2+hdrKey), flow)
	case word(data, 2+hdrHolds) != 0:
		return fmt.Errorf("core: flow %d: hold word %#x", flow, word(data, 2+hdrHolds))
	case r.HasFlow(flow):
		return fmt.Errorf("core: flow %d is already tracked", flow)
	}
	lay := word(data, 2+hdrK) & layout
	if k := lay & (1<<kBits - 1); k < 1 {
		return fmt.Errorf("core: flow %d: state for %d hops, a path length no recording takes", flow, k)
	}
	n := e.blockWords(lay)
	if len(data)/8-2 < n {
		return fmt.Errorf("core: flow %d: image of %d words, its block alone has %d", flow, len(data)/8-2, n)
	}
	a := r.own()
	off, w := a.cut(flow, n)
	for i := range w {
		w[i] = word(data, 2+i)
	}
	fs := flowState{w: w, ps: &a.pageSet, a: a, off: off}
	if err := fs.restore(e, data[8*(2+n):]); err != nil {
		a.drop(off)
		return fmt.Errorf("core: flow %d: %w", flow, err)
	}
	a.insert(off)
	return nil
}

// restore checks a block copied from an image and installs the side
// entries that follow it there.
func (fs *flowState) restore(e *Engine, side []byte) error {
	used := kBits + 1 + len(e.places)
	for j, x := range fs.w[hdrK:headerWords(len(e.places))] {
		if from := used - 64*j; from < 64 && x>>uint(max(from, 0)) != 0 {
			return fmt.Errorf("started bits beyond the plan's %d query slots", len(e.places))
		}
	}
	k, sided := fs.k(), len(side) > 0
	// next takes the next run; only a histogram's may be packed.
	next := func(packable bool) (run []uint64, packed bool, err error) {
		if !sided {
			return nil, false, nil
		}
		if run, packed, err = nextRun(&side); packed && !packable {
			err = fmt.Errorf("a packed run that is no histogram")
		}
		return run, packed, err
	}
	decoded := e.rowsPerHop > 0
	for i := range e.places {
		pl := &e.places[i]
		words, rows := fs.parts(pl)
		if !fs.started(i) {
			decoded = decoded && pl.kind != opPath
			if !allZero(words) || !allZero(rows) {
				return fmt.Errorf("query %q: state, and not started", pl.q.Name())
			}
			continue
		}
		var run []uint64
		var packed bool
		var err error
		switch pl.kind {
		case opPath:
			if run, _, err = next(false); err == nil {
				err = pl.plan.Check(k, words, rows, run)
			}
			if err == nil {
				var dec coding.Decoder
				pl.plan.Bind(&dec, k, words, rows, nil)
				decoded = decoded && dec.Done()
				fs.keepSlab(pl, run)
			}
		case opLatency:
			for hop := 1; hop <= k && err == nil; hop++ {
				if run, packed, err = next(true); err == nil {
					err = fs.store(e, pl, hop).restore(run, packed, pl.q.Bits())
				}
				if err != nil {
					err = fmt.Errorf("hop %d: %w", hop, err)
				}
			}
		default:
			if run, _, err = next(false); len(run) > 0 {
				series := make([]float64, len(run))
				for j, b := range run {
					series[j] = math.Float64frombits(b)
				}
				fs.setSeries(e, pl, series)
			}
		}
		if err != nil {
			return fmt.Errorf("query %q: %w", pl.q.Name(), err)
		}
	}
	switch {
	case fs.w[hdrK]&rowless != 0 != decoded:
		return fmt.Errorf("candidate rows kept = %v, and every path decoder done = %v", fs.w[hdrK]&rowless == 0, decoded)
	case sided && fs.side() == 0:
		return fmt.Errorf("side entries that hold nothing")
	case len(side) != 0:
		return fmt.Errorf("%d words after the side entries", len(side)/8)
	}
	return nil
}

// nextRun takes a run of words off the front of *b, and its packedRun
// flag.
func nextRun(b *[]byte) ([]uint64, bool, error) {
	if len(*b) < 8 || word(*b, 0)&^packedRun > uint64(len(*b)/8-1) {
		return nil, false, fmt.Errorf("side entries end in a run of more words than are left")
	}
	run, packed := make([]uint64, word(*b, 0)&^packedRun), word(*b, 0)&packedRun != 0
	for i := range run {
		run[i] = word(*b, 1+i)
	}
	*b = (*b)[8*(1+len(run)):]
	return run, packed, nil
}

func allZero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// restore checks the store's tail, copied from an image, and installs
// the histogram run (lo, then the counts, packed or not; none if empty).
// A tail is one counting leaves: its shared mark and the byte it sits in
// clear, its window within the codes or closed, every code it counts
// within the query's bits, and closed exactly when the histogram is too
// full for a tail to open (latStore.count) — a closed tail counts nothing.
// A histogram is one folding leaves, as appendHist writes it: its codes
// within the query's bits, trimmed to a nonzero first and last count, at
// most maxLatSamples samples, and packed exactly when every count fits 32
// bits.
func (st latStore) restore(run []uint64, packed bool, bits int) error {
	maxCode := digestMask(bits)
	var sum *latSum
	if packed && len(run) == 0 {
		return fmt.Errorf("latency histogram run marked packed and empty")
	}
	if len(run) > 0 {
		lo, counts := run[0], run[1:]
		if packed {
			counts = make([]uint64, 0, 2*len(run[1:]))
			for _, w := range run[1:] {
				counts = append(counts, w&math.MaxUint32, w>>32)
			}
			if n := len(counts); n > 0 && counts[n-1] == 0 {
				counts = counts[:n-1] // an odd last count's high half
			}
		} else if len(counts) > 0 && slices.Max(counts) <= math.MaxUint32 {
			return fmt.Errorf("latency histogram of 32-bit counts not packed")
		}
		if len(counts) == 0 {
			return fmt.Errorf("latency histogram of no codes")
		}
		if lo > maxCode || uint64(len(counts)-1) > maxCode-lo {
			return fmt.Errorf("latency histogram of %d codes from %d does not fit %d bits", len(counts), lo, bits)
		}
		sum = &latSum{lo: int(lo), counts: counts}
		for _, c := range counts {
			if c > maxLatSamples-sum.n {
				return fmt.Errorf("latency histogram counts more than 2^62 samples")
			}
			sum.n += c
		}
		if counts[0] == 0 || counts[len(counts)-1] == 0 {
			return fmt.Errorf("latency histogram not trimmed to its first and last code")
		}
	}
	lo, n := st.lo(), uint64(0)
	if sum != nil {
		n = sum.n
	}
	switch {
	case st.t[0]>>16&0xFF != 0:
		return fmt.Errorf("latency tail with mark byte %#x", st.t[0]>>16&0xFF)
	case lo > 1<<8-latTail && lo != tailClosed:
		return fmt.Errorf("latency tail at code %d", lo)
	case (lo == tailClosed) != (n > maxLatSamples-latTail*math.MaxUint8):
		return fmt.Errorf("latency tail closed = %v beside a histogram of %d samples", lo == tailClosed, n)
	}
	for j, c := range st.tail() {
		if c != 0 && (lo == tailClosed || uint64(lo+j) > maxCode) {
			return fmt.Errorf("latency tail counts code %d, beyond the %d-bit codes or closed", lo+j, bits)
		}
	}
	if sum != nil {
		st.setSum(sum)
	}
	return nil
}
