package core

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/coding"
	"repro/internal/sketch"
)

// flowState is what the Recording holds for one flow: a header and one
// block of words laid out for the flow's path length when its first packet
// arrives. The block is pointer-free and holds every query's fixed-size
// state — a path query's decoder words, a latency query's per-hop inline
// tails — at the place the engine gives the query (Engine.places). What
// only some flows need hangs off the header and is allocated when first
// needed: a decoder's slab of stored packets, a latency store's histogram,
// a util series. coding.Decoder and latStore are views the
// Recording binds over these: a path decoder for a run of the flow's
// packets (Recording.recordRun) or one answer, a latency store, on the
// stack, for one packet or one answer. A cold testbench flow is the
// header and the block.
type flowState struct {
	// k is the path length of the flow's first recorded packet. Every
	// per-hop state is sized by it, whichever packet first reaches the
	// query, so a route that shortens mid-flow (§7) leaves the later hops
	// empty instead of giving the queries different hop counts. 0 until a
	// packet arrives (a restored flow with no per-hop state). An int16,
	// which keeps the header's first word for k, shared and holds: the wire
	// and the decoders stop at 64 hops.
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
	// words is the block: a bit per query, set once the query has state
	// for the flow (started), then each query's words (Engine.places).
	words []uint64
	// slabs holds each path query's stored packets (coding.Decoder.Slab)
	// by the query's ordinal among the engine's path queries: nil until a
	// decoder stores a packet.
	slabs [][]uint64
	// more is nil until a latency store takes a histogram, or a util query
	// a series.
	more *flowMore
}

// flowMore is the per-flow state outside the block that only some flows
// need: each latency store's histogram, at the query's ordinal
// among the engine's latency queries times k plus the hop's index, and
// each util query's decoded values in arrival order, at its ordinal.
type flowMore struct {
	sums   []*latSum
	series [][]float64
}

// maxHolds is the hold count of a state shared for good; a count that
// reaches it is never decremented.
const maxHolds = math.MaxUint32

// slotPlace is where one compiled query keeps its state in every flow: its
// kind, its words in a k-hop flow's block from base+perHop*k on, its
// ordinal among the engine's queries of its kind (flowState.slabs,
// flowMore), and a path query's decode plan.
type slotPlace struct {
	kind         opKind
	base, perHop int
	ord          int
	plan         *coding.Plan
}

// at returns the place's first word in a k-hop flow's block.
func (pl *slotPlace) at(k int) int { return pl.base + pl.perHop*k }

// layOut places every query's state in a flow's block: the started bits
// first, then each query in slot order. A path query's decoder words are a
// fixed part and a part per hop (coding.Plan.Words), a latency query's are
// tailWords per hop, a util query's are none.
func (e *Engine) layOut(queries []Query) {
	e.places = make([]slotPlace, len(queries))
	e.blockBase = (len(queries) + 63) / 64
	for i, q := range queries {
		pl := &e.places[i]
		switch q := q.(type) {
		case *PathQuery:
			pl.kind, pl.plan = opPath, q.plan
			pl.base, pl.perHop = q.plan.Words(0), q.plan.Words(1)-q.plan.Words(0)
		case *LatencyQuery:
			pl.kind, pl.perHop = opLatency, tailWords
		default:
			pl.kind = opUtil
		}
		pl.ord = e.kinds[pl.kind]
		e.kinds[pl.kind]++
		base, perHop := pl.base, pl.perHop
		pl.base, pl.perHop = e.blockBase, e.blockPerHop
		e.blockBase, e.blockPerHop = e.blockBase+base, e.blockPerHop+perHop
	}
}

// newBlock allocates a k-hop flow's block, keeping the started bits of
// old, a block laid out for another k.
func (e *Engine) newBlock(k int, old []uint64) []uint64 {
	words := make([]uint64, e.blockBase+e.blockPerHop*k)
	copy(words, old[:min(len(old), (len(e.places)+63)/64)])
	return words
}

// started reports whether query slot i has state for the flow.
func (fs *flowState) started(i int) bool {
	return fs.words != nil && fs.words[i/64]>>uint(i%64)&1 != 0
}

// start marks query slot i as having state for the flow.
func (fs *flowState) start(i int) { fs.words[i/64] |= 1 << uint(i%64) }

// bindDecoder binds dec as a view of a path query's decoder over the
// flow's words. The flow's k must be at most coding.MaxPathLen.
func (fs *flowState) bindDecoder(dec *coding.Decoder, pl *slotPlace) {
	k := int(fs.k)
	var slab []uint64
	if fs.slabs != nil {
		slab = fs.slabs[pl.ord]
	}
	pl.plan.Bind(dec, k, fs.words[pl.at(k):], slab)
}

// keepSlab stores what a decoder view left in its slab, which only ever
// grows.
func (fs *flowState) keepSlab(e *Engine, pl *slotPlace, slab []uint64) {
	switch {
	case fs.slabs != nil && len(fs.slabs[pl.ord]) == len(slab):
		return
	case fs.slabs == nil && len(slab) == 0:
		return
	case fs.slabs == nil:
		fs.slabs = make([][]uint64, e.kinds[opPath])
	}
	fs.slabs[pl.ord] = slab
}

// store binds a view of a latency query's store for hop (1-based) over
// the flow's words.
func (fs *flowState) store(e *Engine, pl *slotPlace, hop int) latStore {
	k := int(fs.k)
	at := pl.at(k) + (hop-1)*tailWords
	return latStore{t: (*[tailWords]uint64)(fs.words[at:]), fs: fs,
		at: pl.ord*k + hop - 1, n: e.kinds[opLatency] * k}
}

// lazy returns the flow's flowMore, allocated at first use.
func (fs *flowState) lazy() *flowMore {
	if fs.more == nil {
		fs.more = &flowMore{}
	}
	return fs.more
}

// series returns a util query's values.
func (fs *flowState) series(pl *slotPlace) []float64 {
	if fs.more == nil || fs.more.series == nil {
		return nil
	}
	return fs.more.series[pl.ord]
}

// setSeries stores a util query's values.
func (fs *flowState) setSeries(e *Engine, pl *slotPlace, s []float64) {
	m := fs.lazy()
	if m.series == nil {
		m.series = make([][]float64, e.kinds[opUtil])
	}
	m.series[pl.ord] = s
}

// unshare returns a private copy of a shared fs to write to (see Clone for
// what is copied and what is shared). The owner's copy keeps a util
// series' spare capacity; a clone's copy clamps it.
func (fs *flowState) unshare(e *Engine, clamp bool) *flowState {
	c := &flowState{k: fs.k, words: slices.Clone(fs.words), slabs: slices.Clone(fs.slabs)}
	if fs.more != nil {
		c.more = &flowMore{sums: slices.Clone(fs.more.sums), series: slices.Clone(fs.more.series)}
	}
	for i := range e.places {
		pl := &e.places[i]
		if !c.started(i) {
			continue
		}
		switch pl.kind {
		case opPath:
			// A finished decoder never writes its slab again.
			var dec coding.Decoder
			if c.bindDecoder(&dec, pl); !dec.Done() && c.slabs != nil {
				c.slabs[pl.ord] = slices.Clone(c.slabs[pl.ord])
			}
		case opLatency:
			for hop := 1; hop <= int(c.k); hop++ {
				c.store(e, pl, hop).t[0] |= markShared
			}
		case opUtil:
			if clamp {
				c.setSeries(e, pl, slices.Clip(c.series(pl)))
			}
		}
	}
	return c
}

// latStore is a view of one (flow, hop)'s latency samples, counted. A
// latency code is one byte (NewLatencyQuery), so a quantile
// depends only on how often each code was seen. add counts a code in
// place, in an inline tail of counters for the codes lo..lo+latTail-1 that
// lives in the flow's block; a code outside that window slides it while
// the codes held still fit, and otherwise, or at a full counter, the tail
// folds into a histogram of 64-bit counts behind the latSum (count, fold).
// A cold flow's stores take tailWords words a hop in its block and no
// object.
//
// A tail is packed into tailWords words: lo in the low 16 bits of word 0,
// the shared mark in the next 8, then the latTail one-byte counters, byte
// 3+j of the tail (little-endian within each word) counting code lo+j.
// Each holder's private copy of a flow a clone shares (Recording.Clone)
// copies the tail with the block and marks it shared: its histogram is
// shared with the clone, so the store folds into a copy of it.
type latStore struct {
	t  *[tailWords]uint64 // the tail's words in the flow's block
	fs *flowState         // whose flowMore holds the store's latSum
	at int                // the latSum's index in flowMore.sums
	n  int                // flowMore.sums' length, once allocated
}

// latSum is what a store keeps outside the block: the code counts of the
// samples folded out of its tail, for the codes
// lo..lo+len(counts)-1, the lowest and highest it has counted; 64-bit, as a
// long flow's hop may see 2^32 of one code.
type latSum struct {
	n      int // samples counted in counts
	lo     int
	counts []uint64
}

// latTail is the counters in a store's inline tail, as many as fill
// tailWords words beside lo and the mark, and tailClosed the lo of a closed
// tail. markShared is the shared mark's bit in word 0: set on every store
// of a flow state copied after a clone (flowState.unshare) and cleared by
// the fold into a histogram of its own.
const (
	latTail, tailWords, tailClosed = 29, 4, 1 << 8
	markShared                     = 1 << 16
)

// maxLatSamples is the most samples a counting store takes: more than any
// flow's hop sees, and few enough that no count or total wraps. A restored
// histogram may count up to it (restoreHist), so a store restored from any
// blob records on into one that is accepted again.
const maxLatSamples = 1 << 62

// lo is the tail's first code, or tailClosed, which sends every sample to
// the slow path: in a store that may be near maxLatSamples (restored or
// full).
func (st latStore) lo() int { return int(st.t[0] & 0xFFFF) }

// shared reports the shared mark.
func (st latStore) shared() bool { return st.t[0]&markShared != 0 }

// tail unpacks the tail's counters.
func (st latStore) tail() (tail [latTail]uint8) {
	var b [tailWords * 8]byte
	for i, w := range st.t {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	copy(tail[:], b[3:])
	return tail
}

// setTail packs lo and the counters into the tail, keeping the mark.
func (st latStore) setTail(lo int, tail [latTail]uint8) {
	var b [tailWords * 8]byte
	binary.LittleEndian.PutUint64(b[:], st.t[0]&markShared|uint64(lo))
	copy(b[3:], tail[:])
	for i := range st.t {
		st.t[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
}

// sum returns the store's latSum, nil for a store that has not folded.
func (st latStore) sum() *latSum {
	if m := st.fs.more; m != nil && m.sums != nil {
		return m.sums[st.at]
	}
	return nil
}

// setSum installs the store's latSum.
func (st latStore) setSum(s *latSum) {
	m := st.fs.lazy()
	if m.sums == nil {
		m.sums = make([]*latSum, st.n)
	}
	m.sums[st.at] = s
}

// samples is the number of samples the store has taken: those in
// its histogram and those in its tail, whose counters each word sums in
// place (bytes into 16-bit lanes, lanes by a multiply).
func (st latStore) samples() (n int) {
	if sum := st.sum(); sum != nil {
		n = sum.n
	}
	for i, w := range st.t {
		if i == 0 {
			w &^= 1<<24 - 1 // lo and the mark
		}
		w = w&0x00FF00FF00FF00FF + w>>8&0x00FF00FF00FF00FF
		n += int(w * 0x0001000100010001 >> 48)
	}
	return n
}

// add counts a code: in place in the tail when the window holds it and its
// counter is not full, and otherwise through count.
func (st latStore) add(code uint64) {
	if i := code - st.t[0]&0xFFFF; i < latTail {
		w, shift := &st.t[(3+i)>>3&(tailWords-1)], (3+i)&7*8
		if uint8(*w>>shift) < math.MaxUint8 {
			*w += 1 << shift
			return
		}
	}
	st.count(int(code))
}

// count is add for a code the tail cannot take as it is: outside
// the window, at a full counter, or any while the tail is closed. The
// window slides to centre the held codes and the code when they fit it;
// otherwise the tail folds and a new one starts at the code. A tail opens
// only while a full one cannot carry the store past maxLatSamples.
func (st latStore) count(code int) {
	lo, hi, held := st.held()
	lo, hi = min(lo, code), max(hi, code)
	if held && (hi-lo >= latTail || uint(code-st.lo()) < latTail) {
		st.fold()
		lo, hi, held = code, code, false
	}
	if sum := st.sum(); !held && sum != nil && sum.n > maxLatSamples-latTail*math.MaxUint8 {
		st.setTail(tailClosed, [latTail]uint8{})
		return
	}
	var tail [latTail]uint8
	at, was := min(max(lo-(latTail-1-(hi-lo))/2, 0), 1<<8-latTail), st.lo()
	for j, c := range st.tail() {
		if c != 0 {
			tail[was+j-at] = c
		}
	}
	tail[code-at]++
	st.setTail(at, tail)
}

// held returns the lowest and highest code the tail counts and true, or,
// for an empty tail, a range every code widens, and false.
func (st latStore) held() (lo, hi int, ok bool) {
	lo, hi = 1<<8, -1
	at := st.lo()
	for j, c := range st.tail() {
		if c != 0 {
			lo, hi = min(lo, at+j), at+j
		}
	}
	return lo, hi, hi >= 0
}

// fold counts a nonempty tail into the store's histogram, widened to the
// tail's codes, and empties it. A shared store's histogram may be a
// clone's, so it counts into a copy and is private from then on.
func (st latStore) fold() {
	lo, hi, _ := st.held()
	sum, shared := st.sum(), st.shared()
	if sum != nil {
		lo, hi = min(lo, sum.lo), max(hi, sum.lo+len(sum.counts)-1)
	}
	if sum == nil || shared || lo < sum.lo || hi >= sum.lo+len(sum.counts) {
		counts := make([]uint64, hi-lo+1)
		switch {
		case sum == nil:
			sum = &latSum{}
		case shared:
			copy(counts[sum.lo-lo:], sum.counts)
			sum = &latSum{n: sum.n}
		default:
			copy(counts[sum.lo-lo:], sum.counts)
		}
		sum.lo, sum.counts = lo, counts
		st.setSum(sum)
	}
	at := st.lo()
	for j, c := range st.tail() {
		if c != 0 {
			sum.counts[at+j-sum.lo] += uint64(c)
			sum.n += int(c)
		}
	}
	st.t[0] &^= markShared
	st.setTail(at, [latTail]uint8{})
}

// countQuantiles writes the phi-quantile code of the store's samples
// to out[i] for each phis[i], by the nearest-rank rule (sketch.RankIndex):
// it counts them into a histogram of the code domain on the stack and
// walks that to the rank.
func (st latStore) countQuantiles(phis, out []float64) {
	var hist [1 << 8]uint64
	n := st.countInto(&hist)
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

// countInto adds the store's histogram and tail to hist and
// returns how many samples it added.
func (st latStore) countInto(hist *[1 << 8]uint64) (n int) {
	if sum := st.sum(); sum != nil {
		for i, c := range sum.counts {
			hist[sum.lo+i] += c
		}
		n = sum.n
	}
	at := st.lo()
	for j, c := range st.tail() {
		if c != 0 {
			hist[at+j] += uint64(c)
			n += int(c)
		}
	}
	return n
}
