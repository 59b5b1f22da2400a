package core

import (
	"encoding/binary"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/coding"
	"repro/internal/sketch"
)

// flowState is a handle on what a Recording holds for one flow: a
// pointer-free block in its arena (see arena), laid out for the flow's
// path length, with every query's fixed-size state — decoder words,
// latency tails — at its place (Engine.places), then the path decoders'
// candidate rows until the flow's paths decode, and a side entry, made
// when first needed and freed when left empty, for an undecoded path's
// slab, a histogram or a util series.
// coding.Decoder and latStore are views bound over these, for a run of
// packets (Recording.recordRun, which drops the rows and the slab) or one
// answer. A cold testbench flow is its block: 37 words while it decodes,
// 27 once it has.
type flowState struct {
	w   []uint64 // the block
	ps  *pageSet // where its side entry is
	a   *arena   // the arena that writes it; nil on a view
	off uint32   // the block's offset
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

// slotPlace is where one compiled query keeps its state in every flow: the
// query and its kind, its words in a k-hop flow's block from
// base+perHop*k on, past the words of the path decoders before it (a path
// query's, after every other query's: coding.Plan.Words is not affine in
// k), its ordinal among the engine's queries of its kind (the side
// entry's slabs, flowMore), and a path query's decode plan and the
// candidate row words per hop of the path queries before it (rowAt).
type slotPlace struct {
	q            Query
	kind         opKind
	base, perHop int
	before       []*coding.Plan
	ord, rowAt   int
	plan         *coding.Plan
}

// at returns the place's first word in a k-hop flow's block.
func (pl *slotPlace) at(k int) int {
	at := pl.base + pl.perHop*k
	for _, p := range pl.before {
		at += p.Words(k)
	}
	return at
}

// layOut places every query's state in a flow's block: the header first,
// then each latency and util query in slot order, then each path query's
// decoder words, then the path queries' candidate rows
// (coding.Plan.RowWords), in slot order too, so a rowless block is the
// same words without the last. A latency query's words are tailWords per
// hop, a util query's are none, and a path query's decoder words are
// coding.Plan.Words(k), which packs the decoded values per word.
func (e *Engine) layOut(queries []Query) {
	e.places = make([]slotPlace, len(queries))
	e.blockBase = headerWords(len(queries))
	for i, q := range queries {
		pl := &e.places[i]
		pl.q = q
		switch q := q.(type) {
		case *PathQuery:
			pl.kind, pl.plan, pl.rowAt = opPath, q.plan, e.rowsPerHop
			e.rowsPerHop += q.plan.RowWords(1)
			e.paths = append(e.paths, q.plan)
		case *LatencyQuery:
			pl.kind, pl.perHop = opLatency, tailWords
		default:
			pl.kind = opUtil
		}
		pl.ord = e.kinds[pl.kind]
		e.kinds[pl.kind]++
		if pl.kind != opPath {
			perHop := pl.perHop
			pl.base, pl.perHop = e.blockBase, e.blockPerHop
			e.blockPerHop += perHop
		}
	}
	for i := range e.places {
		if pl := &e.places[i]; pl.kind == opPath {
			pl.base, pl.perHop, pl.before = e.blockBase, e.blockPerHop, e.paths[:pl.ord]
		}
	}
}

// k is the path length of the flow's first recorded packet, which sizes
// every per-hop state, so a route that shortens mid-flow (§7) leaves the
// later hops empty; at least 1 and at most math.MaxInt16 (the wire and the
// decoders stop at 64).
func (fs *flowState) k() int { return int(fs.w[hdrK] & (1<<kBits - 1)) }

// started reports whether query slot i has state for the flow.
func (fs *flowState) started(i int) bool {
	b := kBits + 1 + i
	return fs.w[hdrK+b/64]>>uint(b%64)&1 != 0
}

// start marks query slot i as having state for the flow.
func (fs *flowState) start(i int) {
	b := kBits + 1 + i
	fs.w[hdrK+b/64] |= 1 << uint(b%64)
}

// sideOf is a block's side index+1, 0 for none.
func sideOf(w []uint64) int { return int(atomic.LoadUint64(&w[hdrHolds]) >> 32) }

func (fs *flowState) side() int { return sideOf(fs.w) }

// ensureSide returns the side index+1, making a side entry if there is
// none: only the owner, on a block no lease holds.
func (fs *flowState) ensureSide() int {
	s := fs.side()
	if s == 0 {
		s = fs.a.newSide()
		atomic.StoreUint64(&fs.w[hdrHolds], uint64(s)<<32)
	}
	return s
}

// slab returns a path query's stored packets, by its ordinal.
func (fs *flowState) slab(ord int) []uint64 {
	if s := fs.side(); s != 0 {
		return fs.ps.slabsOf(s)[ord]
	}
	return nil
}

// parts returns a query's words in the flow's block: a path query's
// decoder words and its candidate rows, none in a rowless block, and a
// latency query's tails.
func (fs *flowState) parts(pl *slotPlace) (words, rows []uint64) {
	k := fs.k()
	switch pl.kind {
	case opPath:
		words = fs.w[pl.at(k):][:pl.plan.Words(k)]
		if fs.w[hdrK]&rowless == 0 {
			rows = fs.w[fs.ps.e.blockWords(uint64(k)|rowless)+pl.rowAt*k:][:pl.plan.RowWords(k)]
		}
	case opLatency:
		words = fs.w[pl.at(k):][:tailWords*k]
	}
	return words, rows
}

// bindDecoder binds dec as a view of a path query's decoder over the
// flow's words, without candidate rows in a rowless block. The flow's k
// must be at most coding.MaxPathLen.
func (fs *flowState) bindDecoder(dec *coding.Decoder, pl *slotPlace) {
	words, rows := fs.parts(pl)
	pl.plan.Bind(dec, fs.k(), words, rows, fs.slab(pl.ord))
}

// keepSlab keeps what a decoder view left in its slab, which is the
// caller's: nothing new when it holds what the flow kept, otherwise an
// exact-length copy, or none for an empty slab, as a done decoder's is. A
// kept slab is never written, and a side entry left holding nothing goes
// back to the free list. Only the owner, on a block no lease holds.
func (fs *flowState) keepSlab(pl *slotPlace, slab []uint64) {
	if slices.Equal(fs.slab(pl.ord), slab) {
		return
	}
	var kept []uint64
	if len(slab) > 0 {
		kept = make([]uint64, len(slab))
		copy(kept, slab)
	}
	s := fs.ensureSide()
	slabs := fs.ps.slabsOf(s)
	slabs[pl.ord] = kept
	for _, slab := range slabs {
		if slab != nil {
			return
		}
	}
	if fs.more() == nil {
		atomic.StoreUint64(&fs.w[hdrHolds], 0)
		fs.a.freeSide = append(fs.a.freeSide, uint32(s))
	}
}

// store binds a view of a latency query's store for hop (1-based) over
// the flow's words.
func (fs *flowState) store(e *Engine, pl *slotPlace, hop int) latStore {
	k := fs.k()
	at := pl.at(k) + (hop-1)*tailWords
	return latStore{t: (*[tailWords]uint64)(fs.w[at:]), fs: fs,
		at: pl.ord*k + hop - 1, n: e.kinds[opLatency] * k}
}

// more returns the flow's flowMore, nil before it needs one.
func (fs *flowState) more() *flowMore {
	if s := fs.side(); s != 0 && s <= len(fs.ps.more) {
		return fs.ps.more[s-1]
	}
	return nil
}

// lazy returns the flow's flowMore, made at first use.
func (fs *flowState) lazy() *flowMore {
	m := fs.more()
	if m == nil {
		m = &flowMore{}
		fs.a.setMore(fs.ensureSide(), m)
	}
	return m
}

// series returns a util query's values.
func (fs *flowState) series(pl *slotPlace) []float64 {
	if m := fs.more(); m != nil && m.series != nil {
		return m.series[pl.ord]
	}
	return nil
}

// setSeries stores a util query's values.
func (fs *flowState) setSeries(e *Engine, pl *slotPlace, s []float64) {
	m := fs.lazy()
	if m.series == nil {
		m.series = make([][]float64, e.kinds[opUtil])
	}
	m.series[pl.ord] = s
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
// The owner's private copy of a flow a view holds (Recording.Lease) copies
// the tail with the block and marks it shared: its histogram is shared
// with the view, so the store folds into a copy of it.
type latStore struct {
	t  *[tailWords]uint64 // the tail's words in the flow's block
	fs *flowState         // whose flowMore holds the store's latSum
	at int                // the latSum's index in flowMore.sums
	n  int                // flowMore.sums' length, once allocated
}

// latSum is what a store keeps outside the block: the code counts of the
// samples folded out of its tail, for the codes
// lo..lo+len(counts)-1, the lowest and highest it has counted; 64-bit on
// every platform, as a long flow's hop may see 2^32 of one code.
type latSum struct {
	n      uint64 // samples counted in counts
	lo     int
	counts []uint64
}

// latTail is the counters in a store's inline tail, as many as fill
// tailWords words beside lo and the mark, and tailClosed the lo of a closed
// tail. markShared is the shared mark's bit in word 0: set on every store
// of a held flow state's copy (arena.unshare) and cleared by the fold
// into a histogram of its own.
const (
	latTail, tailWords, tailClosed = 29, 4, 1 << 8
	markShared                     = 1 << 16
)

// maxLatSamples is the most samples a counting store takes: more than any
// flow's hop sees, and few enough that no count or total wraps. A restored
// histogram may count up to it (latStore.restore), so a store restored
// from any image records on into one that is accepted again.
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
	if m := st.fs.more(); m != nil && m.sums != nil {
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
func (st latStore) samples() (n uint64) {
	if sum := st.sum(); sum != nil {
		n = sum.n
	}
	for i, w := range st.t {
		if i == 0 {
			w &^= 1<<24 - 1 // lo and the mark
		}
		w = w&0x00FF00FF00FF00FF + w>>8&0x00FF00FF00FF00FF
		n += w * 0x0001000100010001 >> 48
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
// view's, so it counts into a copy and is private from then on.
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
			sum.n += uint64(c)
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
		rank, code := rankIndex(phi, n), 0
		for seen := hist[0]; seen <= rank; seen += hist[code] {
			code++
		}
		out[i] = float64(code)
	}
}

// countInto adds the store's histogram and tail to hist and
// returns how many samples it added.
func (st latStore) countInto(hist *[1 << 8]uint64) (n uint64) {
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
			n += uint64(c)
		}
	}
	return n
}

// rankIndex is sketch.RankIndex for a count of n samples, which may pass
// math.MaxInt on a 32-bit platform.
func rankIndex(phi float64, n uint64) uint64 {
	switch {
	case n <= math.MaxInt:
		return uint64(sketch.RankIndex(phi, int(n)))
	case phi >= 1:
		return n - 1
	case phi*float64(n) >= 1:
		return uint64(math.Ceil(phi*float64(n))) - 1
	}
	return 0
}
