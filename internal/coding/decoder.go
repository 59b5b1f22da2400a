package coding

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/hash"
)

// Decoder is the Recording/Inference-side reconstruction of a distributed
// message (§4.2). It consumes (packet ID, digest) pairs extracted by the
// PINT sink and incrementally recovers the k blocks via peeling:
//
//   - every packet's acting hop set is recomputed from the global hashes
//     (no hop IDs travel on the wire),
//   - contributions of already-decoded hops are stripped,
//   - a packet reduced to a single unknown hop yields either the block
//     itself (raw mode) or a constraint h(v, pkt) = residual that filters
//     the hop's candidate set against the universe (hashed mode),
//   - each newly decoded hop cascades into the stored packets that
//     reference it.
//
// The decoder needs the path length k (derived from the packet TTL in a
// deployment, §4.1) and, in hashed mode, the value universe V (e.g. the
// network's switch IDs).
type Decoder struct {
	cfg      Config
	g        hash.Global
	insts    []hash.Global
	k        int
	universe []uint64

	frags int
	// known[f][h] and vals[f][h]: fragment f of hop h+1 (raw mode); hashed
	// mode uses a single fragment row.
	known [][]bool
	vals  [][]uint64
	// cand[h]: remaining candidate values for hop h+1 (hashed mode only;
	// nil slice means "still the full universe", materialized lazily).
	cand [][]uint64

	pkts     []pktRec
	hopIndex [][][]int // [frag][hop] -> indices into pkts

	// scratch holds the residual words of the packet currently being
	// observed; arena owns the residuals of stored packets. Together they
	// keep Observe free of per-packet slice allocations: packets explained
	// on arrival never touch the heap, stored ones bump-allocate.
	scratch []uint64
	arena   wordArena

	observed     int
	inconsistent int // packets contradicting the decoded prefix (§7: path change signal)
	decodedHops  int
}

// wordArena bump-allocates small []uint64 residuals out of fixed-size
// chunks. Chunks are never reallocated, so handed-out slices stay valid;
// freed space is never reclaimed — the decoder's stored packets live until
// the decoder itself is dropped, exactly as the per-packet copies they
// replace did.
type wordArena struct {
	chunks [][]uint64
	free   []uint64
}

const arenaChunkWords = 1024

func (a *wordArena) alloc(n int) []uint64 {
	if n > len(a.free) {
		size := arenaChunkWords
		if n > size {
			size = n
		}
		c := make([]uint64, size)
		a.chunks = append(a.chunks, c)
		a.free = c
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

type pktRec struct {
	id   uint64
	frag int
	mask uint64 // bitmask of still-unknown acting hops (bit i = hop i+1)
	res  []uint64
	dead bool
}

// NewDecoder builds a decoder for a k-hop path. In hashed mode universe
// must hold the distinct possible block values; in raw mode it is ignored.
func NewDecoder(cfg Config, g hash.Global, k int, universe []uint64) (*Decoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("coding: path length %d out of [1,64]", k)
	}
	d := &Decoder{cfg: cfg, g: g, k: k, frags: cfg.Fragments()}
	d.insts = make([]hash.Global, cfg.instances())
	for i := range d.insts {
		d.insts[i] = g.Instance(i)
	}
	if cfg.Mode == ModeHashed {
		if len(universe) < 1 {
			return nil, fmt.Errorf("coding: hashed mode requires a value universe")
		}
		seen := make(map[uint64]bool, len(universe))
		for _, v := range universe {
			if seen[v] {
				return nil, fmt.Errorf("coding: universe value %d duplicated", v)
			}
			seen[v] = true
		}
		d.universe = universe
		d.cand = make([][]uint64, k)
	}
	d.known = make([][]bool, d.frags)
	d.vals = make([][]uint64, d.frags)
	d.hopIndex = make([][][]int, d.frags)
	for f := 0; f < d.frags; f++ {
		d.known[f] = make([]bool, k)
		d.vals[f] = make([]uint64, k)
		d.hopIndex[f] = make([][]int, k)
	}
	return d, nil
}

// K returns the path length being decoded.
func (d *Decoder) K() int { return d.k }

// Clone deep-copies the decoder's mutable state so a snapshot can keep
// answering (and even keep observing) independently of the original. The
// universe and candidate slices are shared: candidate sets are only ever
// replaced wholesale, never mutated in place.
func (d *Decoder) Clone() *Decoder {
	c := &Decoder{
		cfg:          d.cfg,
		g:            d.g,
		k:            d.k,
		universe:     d.universe,
		frags:        d.frags,
		observed:     d.observed,
		inconsistent: d.inconsistent,
		decodedHops:  d.decodedHops,
	}
	c.insts = append([]hash.Global(nil), d.insts...)
	if d.cand != nil {
		c.cand = append([][]uint64(nil), d.cand...)
	}
	c.known = make([][]bool, d.frags)
	c.vals = make([][]uint64, d.frags)
	c.hopIndex = make([][][]int, d.frags)
	for f := 0; f < d.frags; f++ {
		c.known[f] = append([]bool(nil), d.known[f]...)
		c.vals[f] = append([]uint64(nil), d.vals[f]...)
		c.hopIndex[f] = make([][]int, d.k)
		for h, idxs := range d.hopIndex[f] {
			if idxs != nil {
				c.hopIndex[f][h] = append([]int(nil), idxs...)
			}
		}
	}
	c.pkts = make([]pktRec, len(d.pkts))
	for i, rec := range d.pkts {
		rec.res = append([]uint64(nil), rec.res...)
		c.pkts[i] = rec
	}
	return c
}

// Observed returns the number of digests consumed so far.
func (d *Decoder) Observed() int { return d.observed }

// Inconsistent returns the number of packets whose digest contradicted the
// already-decoded blocks. A burst of these signals a route change (§7).
func (d *Decoder) Inconsistent() int { return d.inconsistent }

// actingSet recomputes which hops modified the packet, exactly as the
// encoders decided. With FastVectors the whole set materializes in
// O(log 1/p) word operations — the near-linear decoding of §4.2 — instead
// of k hash evaluations.
func (d *Decoder) actingSet(pktID uint64, layer int) uint64 {
	if layer == 0 {
		w := d.g.ReservoirWinner(pktID, d.k)
		return 1 << uint(w-1)
	}
	p := d.cfg.Layering.Probs[layer-1]
	if d.cfg.FastVectors {
		return d.g.ActVector(fastPktID(pktID, layer), d.k, log2InvP(p))
	}
	var mask uint64
	for hop := 1; hop <= d.k; hop++ {
		if d.g.Act(pktID, hop, p) {
			mask |= 1 << uint(hop-1)
		}
	}
	return mask
}

// payload mirrors Encoder.payload for a known value.
func (d *Decoder) payload(pktID uint64, inst, frag int, value uint64) uint64 {
	if d.cfg.Mode == ModeHashed {
		return d.insts[inst].ValueDigest(value, pktID, d.cfg.Bits)
	}
	_ = frag
	return 0 // raw mode strips stored fragment values directly (see strip)
}

// Observe consumes one extracted digest. It returns true when the whole
// message has just become fully decoded.
func (d *Decoder) Observe(pktID uint64, dig Digest) bool {
	d.observed++
	layer := d.cfg.Layering.Select(d.g.LayerPoint(pktID))
	mask := d.actingSet(pktID, layer)
	if mask == 0 {
		return d.Done() // no encoder touched this packet
	}
	frag := 0
	if d.cfg.Mode == ModeRaw {
		frag = d.g.Fragment(pktID, d.frags)
	}
	// Work on the reusable scratch first: most packets are explained (or
	// become a single constraint) on arrival and never need stored state.
	if cap(d.scratch) < len(dig.Words) {
		d.scratch = make([]uint64, len(dig.Words))
	}
	rec := pktRec{
		id:   pktID,
		frag: frag,
		mask: mask,
		res:  d.scratch[:len(dig.Words)],
	}
	copy(rec.res, dig.Words)
	// Strip hops whose block (fragment) is already decoded.
	d.strip(&rec, layer)
	if rec.mask == 0 {
		// Fully explained; in hashed/baseline mode verify consistency as a
		// route-change detector. Overwrite (layer 0) packets must match the
		// winner's payload exactly; xor packets must have zero residual.
		for i := range rec.res {
			if rec.res[i] != 0 {
				d.inconsistent++
				break
			}
		}
		return d.Done()
	}
	if bits.OnesCount64(rec.mask) == 1 {
		d.applyConstraint(&rec)
		return d.Done()
	}
	// The packet is stored for cascading: move its residual off the
	// scratch into arena-owned space.
	stored := d.arena.alloc(len(rec.res))
	copy(stored, rec.res)
	rec.res = stored
	idx := len(d.pkts)
	d.pkts = append(d.pkts, rec)
	for m := rec.mask; m != 0; m &= m - 1 {
		hop := bits.TrailingZeros64(m)
		d.hopIndex[frag][hop] = append(d.hopIndex[frag][hop], idx)
	}
	return d.Done()
}

// strip removes known contributions from a fresh packet record. For layer-0
// (overwrite) packets the mask is a singleton, so "stripping" it means the
// packet is already explained; we xor the expected payload so the residual
// check in Observe validates it.
func (d *Decoder) strip(rec *pktRec, layer int) {
	for m := rec.mask; m != 0; m &= m - 1 {
		hop := bits.TrailingZeros64(m)
		if !d.hopKnown(hop, rec.frag) {
			continue
		}
		d.stripHop(rec, hop)
	}
}

// hopKnown reports whether hop (0-based) is decoded for the record's
// purposes: in hashed mode full value known; raw mode the fragment known.
func (d *Decoder) hopKnown(hop, frag int) bool {
	if d.cfg.Mode == ModeHashed {
		return d.known[0][hop]
	}
	return d.known[frag][hop]
}

// stripHop xors hop's contribution out of a record and clears its mask bit.
func (d *Decoder) stripHop(rec *pktRec, hop int) {
	if d.cfg.Mode == ModeHashed {
		v := d.vals[0][hop]
		for i := range rec.res {
			rec.res[i] ^= d.insts[i].ValueDigest(v, rec.id, d.cfg.Bits)
		}
	} else {
		rec.res[0] ^= d.vals[rec.frag][hop]
	}
	rec.mask &^= 1 << uint(hop)
}

// applyConstraint consumes a record whose mask is a singleton.
func (d *Decoder) applyConstraint(rec *pktRec) {
	hop := bits.TrailingZeros64(rec.mask)
	rec.dead = true
	if d.cfg.Mode == ModeRaw {
		d.setFragment(hop, rec.frag, rec.res[0])
		return
	}
	// Hashed mode: filter the candidate set by all instances.
	cands := d.cand[hop]
	if cands == nil {
		cands = d.universe
	}
	var kept []uint64
	for _, v := range cands {
		ok := true
		for i := range rec.res {
			if d.insts[i].ValueDigest(v, rec.id, d.cfg.Bits) != rec.res[i] {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, v)
		}
	}
	switch len(kept) {
	case 0:
		// The true value always satisfies its own constraints, so an empty
		// set means the packet contradicts reality (route change, wrong k).
		d.inconsistent++
		return
	case 1:
		d.cand[hop] = kept
		d.setValue(hop, kept[0])
	default:
		d.cand[hop] = kept
	}
}

// setValue marks a hashed-mode hop as decoded and cascades.
func (d *Decoder) setValue(hop int, v uint64) {
	if d.known[0][hop] {
		return
	}
	d.known[0][hop] = true
	d.vals[0][hop] = v
	d.decodedHops++
	d.cascade(hop, 0)
}

// setFragment records fragment frag of hop (raw mode) and cascades within
// that fragment's packet population.
func (d *Decoder) setFragment(hop, frag int, bitsVal uint64) {
	if d.known[frag][hop] {
		if d.vals[frag][hop] != bitsVal {
			d.inconsistent++
		}
		return
	}
	d.known[frag][hop] = true
	d.vals[frag][hop] = bitsVal
	if d.cfg.Mode == ModeRaw {
		full := true
		for f := 0; f < d.frags; f++ {
			if !d.known[f][hop] {
				full = false
				break
			}
		}
		if full {
			d.decodedHops++
		}
	}
	d.cascade(hop, frag)
}

// cascade revisits stored packets referencing a newly decoded hop.
func (d *Decoder) cascade(hop, frag int) {
	fr := frag
	if d.cfg.Mode == ModeHashed {
		fr = 0
	}
	queue := d.hopIndex[fr][hop]
	d.hopIndex[fr][hop] = nil
	for _, idx := range queue {
		rec := &d.pkts[idx]
		if rec.dead || rec.mask&(1<<uint(hop)) == 0 {
			continue
		}
		d.stripHop(rec, hop)
		switch bits.OnesCount64(rec.mask) {
		case 0:
			rec.dead = true
			for i := range rec.res {
				if rec.res[i] != 0 {
					d.inconsistent++
					break
				}
			}
		case 1:
			d.applyConstraint(rec)
		}
	}
}

// MissingHops returns the number of hops not yet fully decoded — Fig 5's
// y-axis.
func (d *Decoder) MissingHops() int { return d.k - d.decodedHops }

// Done reports whether every hop is decoded.
func (d *Decoder) Done() bool { return d.decodedHops == d.k }

// Path returns the decoded block per hop (index 0 = first hop) and a
// parallel mask of which entries are trustworthy.
func (d *Decoder) Path() ([]uint64, []bool) {
	vals := make([]uint64, d.k)
	ok := make([]bool, d.k)
	for h := 0; h < d.k; h++ {
		vals[h], ok[h] = d.hopBlock(h)
	}
	return vals, ok
}

// AppendPath appends the per-hop blocks Path returns to dst and reports
// whether every hop is decoded: Path for a caller that reuses its buffer
// and wants the mask only as a verdict.
func (d *Decoder) AppendPath(dst []uint64) ([]uint64, bool) {
	dst = slices.Grow(dst, d.k)
	done := true
	for h := 0; h < d.k; h++ {
		v, ok := d.hopBlock(h)
		dst = append(dst, v)
		done = done && ok
	}
	return dst, done
}

// hopBlock returns hop h's (0-based) decoded block and whether it is
// trustworthy.
func (d *Decoder) hopBlock(h int) (uint64, bool) {
	if d.cfg.Mode == ModeHashed {
		return d.vals[0][h], d.known[0][h]
	}
	var v uint64
	for f := 0; f < d.frags; f++ {
		if !d.known[f][h] {
			return 0, false
		}
		v |= d.vals[f][h] << uint(f*d.cfg.Bits)
	}
	return v, true
}

// CandidateCount returns the number of values still possible for a hop
// (1-based); raw mode returns 1 when decoded and the full space otherwise.
func (d *Decoder) CandidateCount(hop int) int {
	h := hop - 1
	if d.cfg.Mode == ModeHashed {
		if d.cand[h] == nil {
			return len(d.universe)
		}
		return len(d.cand[h])
	}
	if d.known[0][h] {
		return 1
	}
	if d.cfg.ValueBits >= 62 {
		return math.MaxInt32
	}
	return 1 << uint(d.cfg.ValueBits)
}
