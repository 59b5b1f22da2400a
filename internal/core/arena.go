package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// arena holds the flows of a Recording that records with no heap object
// per flow, so a collection marks a few pages and a table however many
// flows there are: a flow's state is a block of words cut from pages that
// never move, a pointer-free table maps its key to the block's offset,
// and what only some flows need (a slab while a path is undecoded, the
// flowMore) is in a side entry, freed once it holds nothing.
// A block's header is the key (hdrKey); the hold count and, above 32
// bits, the side index+1 or 0 (hdrHolds); k in the low kBits, the rowless
// bit, then a started bit per query slot (hdrK on). k and the rowless bit
// size the block: a flow's block holds its path decoders' candidate rows
// until every one has decoded, and from then on is rowless (recordRun). The
// owner writes only blocks no lease holds, copying a held one first
// (unshare) and freeing it once its holds reach 0 (reclaim); views read
// through the pageSet their Lease kept. Both touch the hold word only with
// atomics.
type arena struct {
	pageSet
	// slots is the flow table, nil until the first flow: a power of two of
	// slots at most 7/8 full, each 0 or a block's offset+1, probed
	// linearly from the key's hash (home).
	slots []uint32
	shift uint8 // 64 - log2(len(slots))
	n     int   // flows in the table
	fill  int   // words cut from the last page
	sides int   // side indices given out
	// free holds freed blocks by length, freeSide freed side indices+1,
	// and retired the blocks replaced or evicted while held.
	free              map[int][]uint32
	freeSide, retired []uint32
}

// pageSet reaches blocks and side entries from their offsets and indices:
// pages and slab chunks never move and are only appended to, so a Lease
// keeps the pageSet of its Lease call. more holds side index s's flowMore
// at s-1 if it reaches that far.
type pageSet struct {
	e     *Engine
	pages [][]uint64
	slabs [][][]uint64 // sideChunk side entries' path slabs each (slabsOf)
	more  []*flowMore
}

// An offset's page index sits above pageShift bits, its word in the page
// below. Pages start at pageFirst words and double while one stays at
// most 1/16 of those before it. layout is the bits of hdrK that size a
// block: k and rowless.
const (
	hdrKey, hdrHolds, hdrK = 0, 1, 2
	kBits                  = 15
	rowless                = 1 << kBits
	layout                 = rowless<<1 - 1
	pageShift, pageFirst   = 16, 1024
	sideChunk              = 64
)

// headerWords is the header's length for nq query slots.
func headerWords(nq int) int { return hdrK + (kBits+1+nq+63)/64 }

// blockWords is the length of a block laid out as lay says (its layout
// bits): every query's words for its k hops, then its path decoders'
// candidate rows, which a rowless block has none of.
func (e *Engine) blockWords(lay uint64) int {
	k := int(lay & (1<<kBits - 1))
	n := e.blockBase + e.blockPerHop*k
	for _, p := range e.paths {
		n += p.Words(k)
	}
	if lay&rowless == 0 {
		n += e.rowsPerHop * k
	}
	return n
}

// block returns the block at off.
func (ps *pageSet) block(off uint32) []uint64 {
	w := ps.pages[off>>pageShift][off&(1<<pageShift-1):]
	return w[:ps.e.blockWords(w[hdrK])]
}

// state is a reader's handle on the block at off.
func (ps *pageSet) state(off uint32) flowState { return flowState{w: ps.block(off), ps: ps, off: off} }

// slabsOf returns side index s's path slabs, by path query ordinal.
func (ps *pageSet) slabsOf(s int) [][]uint64 {
	p := ps.e.kinds[opPath]
	return ps.slabs[(s-1)/sideChunk][(s-1)%sideChunk*p:][:p]
}

func holds(w []uint64) uint32 { return uint32(atomic.LoadUint64(&w[hdrHolds])) }

// hold counts a hold on the owner's goroutine, the only one counting up.
func hold(w []uint64) {
	if holds(w) < maxHolds {
		atomic.AddUint64(&w[hdrHolds], 1)
	}
}

// unhold gives a hold back, on any goroutine.
func unhold(w []uint64) {
	for h := &w[hdrHolds]; ; {
		if n := atomic.LoadUint64(h); uint32(n) == maxHolds || atomic.CompareAndSwapUint64(h, n, n-1) {
			return
		}
	}
}

// key returns the key of the block at off.
func (ps *pageSet) key(off uint32) FlowKey {
	return FlowKey(ps.pages[off>>pageShift][off&(1<<pageShift-1)+hdrKey])
}

func (a *arena) home(flow FlowKey) int { return int(uint64(flow) * 0x9E3779B97F4A7C15 >> a.shift) }

// lookup returns flow's slot and true, or the empty slot where it goes
// and false (-1 before the first flow, and on a nil arena).
func (a *arena) lookup(flow FlowKey) (int, bool) {
	if a == nil || a.slots == nil {
		return -1, false
	}
	i := a.home(flow)
	for ; a.slots[i] != 0; i = (i + 1) & (len(a.slots) - 1) {
		if a.key(a.slots[i]-1) == flow {
			return i, true
		}
	}
	return i, false
}

// find returns the owner's handle on flow's state, false if untracked.
func (a *arena) find(flow FlowKey) (fs flowState, ok bool) {
	i, ok := a.lookup(flow)
	if ok {
		fs = a.state(a.slots[i] - 1)
		fs.a = a
	}
	return fs, ok
}

// insert puts a new flow's block in the table, which doubles first if it
// would pass 7/8 full.
func (a *arena) insert(off uint32) {
	if (a.n+1)*8 > len(a.slots)*7 {
		old := a.slots
		a.slots = make([]uint32, max(8, 2*len(old)))
		a.shift = uint8(64 - bits.TrailingZeros(uint(len(a.slots))))
		a.n = 0
		for _, s := range old {
			if s != 0 {
				a.insert(s - 1)
			}
		}
	}
	i, _ := a.lookup(a.key(off))
	a.slots[i] = off + 1
	a.n++
}

// remove empties slot i, moving back each later flow of its probe run
// that may take the hole.
func (a *arena) remove(i int) {
	mask := len(a.slots) - 1
	for j := (i + 1) & mask; a.slots[j] != 0; j = (j + 1) & mask {
		if h := a.home(a.key(a.slots[j] - 1)); (j-h)&mask >= (j-i)&mask {
			a.slots[i], i = a.slots[j], j
		}
	}
	a.slots[i] = 0
	a.n--
}

// cut returns a zeroed block of n words keyed flow, not in the table: a
// freed one of its length, or the next words of the last page or a new
// one.
func (a *arena) cut(flow FlowKey, n int) (uint32, []uint64) {
	var off uint32
	if free := a.free[n]; len(free) > 0 {
		off, a.free[n] = free[len(free)-1], free[:len(free)-1]
	} else {
		last := len(a.pages) - 1
		if last < 0 || a.fill+n > len(a.pages[last]) || a.fill >= 1<<pageShift {
			size, total := pageFirst, 0
			for _, p := range a.pages {
				total += len(p)
			}
			for size < 1<<pageShift && size*16 <= total {
				size *= 2
			}
			if last++; last >= 1<<(32-pageShift)-1 {
				panic("core: a recording's arena is full")
			}
			a.pages, a.fill = append(a.pages, make([]uint64, max(size, n))), 0
		}
		off = uint32(last)<<pageShift | uint32(a.fill)
		a.fill += n
	}
	w := a.pages[off>>pageShift][off&(1<<pageShift-1):][:n]
	clear(w)
	w[hdrKey] = uint64(flow)
	return off, w
}

// drop frees the unheld block at off and its side entry.
func (a *arena) drop(off uint32) {
	w := a.block(off)
	if s := sideOf(w); s != 0 {
		clear(a.slabsOf(s))
		a.setMore(s, nil)
		a.freeSide = append(a.freeSide, uint32(s))
	}
	if a.free == nil {
		a.free = map[int][]uint32{}
	}
	a.free[len(w)] = append(a.free[len(w)], off)
}

// retire frees a block that left the table, or keeps a held one for
// reclaim.
func (a *arena) retire(off uint32, held bool) {
	if held {
		a.retired = append(a.retired, off)
	} else {
		a.drop(off)
	}
}

// reclaim frees every retired block no lease holds any more.
func (a *arena) reclaim() {
	kept := a.retired[:0]
	for _, off := range a.retired {
		if holds(a.block(off)) != 0 {
			kept = append(kept, off)
		} else {
			a.drop(off)
		}
	}
	a.retired = kept
}

// newSide returns a free side index+1.
func (a *arena) newSide() int {
	if n := len(a.freeSide); n > 0 {
		s := a.freeSide[n-1]
		a.freeSide = a.freeSide[:n-1]
		return int(s)
	}
	if p := a.e.kinds[opPath]; p > 0 && a.sides%sideChunk == 0 {
		a.slabs = append(a.slabs, make([][]uint64, sideChunk*p))
	}
	a.sides++
	return a.sides
}

// setMore sets side index s's flowMore.
func (a *arena) setMore(s int, m *flowMore) {
	for m != nil && len(a.more) < s {
		a.more = append(a.more, nil)
	}
	if s <= len(a.more) {
		a.more[s-1] = m
	}
}

// writable returns flow's state for the owner to write to: a held one a
// private copy (unshare), and a new flow one block cut for k hops. A k no
// recording takes is refused before anything is cut, so a refused new
// flow is not tracked.
func (a *arena) writable(flow FlowKey, k int) (flowState, error) {
	if fs, ok := a.find(flow); ok {
		if holds(fs.w) != 0 {
			a.unshare(&fs)
		}
		return fs, nil
	}
	if k < 1 || k > math.MaxInt16 {
		return flowState{}, fmt.Errorf("core: flow %v: path length %d", flow, k)
	}
	off, w := a.cut(flow, a.e.blockWords(uint64(k)))
	w[hdrK] = uint64(k)
	a.insert(off)
	return flowState{w: w, ps: &a.pageSet, a: a, off: off}, nil
}

// move copies fs's block to a fresh one laid out as lay says (layout bits:
// k hops, with candidate rows or rowless) and repoints the table. The
// block's layout is either the same or the same k with rows, whose rows,
// last in the block, are not copied. An unheld block is freed and its side
// entry moves with it; a held one is retired with its side entry, which
// its copy has none of (unshare). One load decides both, so a Release
// meanwhile cannot free the side entry unshare copies from.
func (a *arena) move(fs *flowState, lay uint64) {
	off, w := a.cut(a.key(fs.off), a.e.blockWords(lay))
	copy(w[hdrK:], fs.w[hdrK:])
	w[hdrK] = w[hdrK]&^layout | lay
	held := holds(fs.w) != 0
	if !held {
		w[hdrHolds] = atomic.SwapUint64(&fs.w[hdrHolds], 0)
	}
	if i, ok := a.lookup(a.key(off)); ok && a.slots[i] == fs.off+1 {
		a.slots[i] = off + 1
	}
	a.retire(fs.off, held)
	fs.w, fs.off = w, off
}

// unshare copies a held flow's block for the owner to write to (see
// Recording.Lease for what is copied and what is shared).
func (a *arena) unshare(fs *flowState) {
	held := *fs
	a.move(fs, fs.w[hdrK]&layout)
	if s := held.side(); s != 0 {
		copy(a.slabsOf(fs.ensureSide()), a.slabsOf(s))
		if m := held.more(); m != nil {
			a.setMore(fs.side(), &flowMore{sums: slices.Clone(m.sums), series: slices.Clone(m.series)})
		}
	}
	e := a.e
	for i := range e.places {
		if pl := &e.places[i]; pl.kind == opLatency && fs.started(i) {
			for hop := 1; hop <= fs.k(); hop++ {
				fs.store(e, pl, hop).t[0] |= markShared
			}
		}
	}
}
