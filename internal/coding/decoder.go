package coding

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/hash"
)

// Plan is the part of a path decoder that is the same for every flow of a
// query: the encoder whose packets it decodes — the validated Config, the
// global hash family, the per-instance value hashes and per-layer act
// thresholds, shared rather than derived a second time — and the value
// universe, checked once, here, for emptiness and duplicates. It is
// immutable after NewPlan and shared by every Decoder built from it, from
// any goroutine; nothing a Decoder computes is ever stored in it.
type Plan struct {
	enc Encoder
	// universe holds the distinct possible block values (hashed mode; nil
	// in raw mode). A candidate set is a bitset over its indices, so
	// candidates always enumerate in universe order.
	universe []uint64
	setWords int // uint64 words per candidate bitset

	frags  int
	words  int  // residual words per digest: one per hash instance
	stride int  // slab words per stored packet: recHeader + words
	shift  uint // 64 - Bits: a value hash's top Bits bits are its digest
	// A decoded value is packed at width bits (a hashed hop's universe
	// index, at least 1 bit; a raw hop's Bits-bit fragment), per values to
	// a word.
	width, per int
	valMask    uint64
}

// NewPlan builds the decode side of enc. In hashed mode universe must hold
// the distinct possible block values; raw mode ignores it.
func NewPlan(enc *Encoder, universe []uint64) (*Plan, error) {
	cfg := enc.cfg
	p := &Plan{enc: *enc, frags: cfg.Fragments(), words: cfg.instances(), shift: 64 - uint(cfg.Bits)}
	p.stride = recHeader + p.words
	p.width = cfg.Bits
	if cfg.Mode == ModeHashed {
		if len(universe) < 1 {
			return nil, fmt.Errorf("coding: hashed mode requires a value universe")
		}
		seen := make(map[uint64]struct{}, len(universe))
		for _, v := range universe {
			if _, dup := seen[v]; dup {
				return nil, fmt.Errorf("coding: universe value %d duplicated", v)
			}
			seen[v] = struct{}{}
		}
		p.universe = universe
		p.setWords = (len(universe) + 63) / 64
		p.width = max(bits.Len(uint(len(universe)-1)), 1)
	}
	p.per, p.valMask = 64/p.width, 1<<uint(p.width)-1
	return p, nil
}

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
// deployment, §4.1); everything else comes from its Plan. A Decoder is a
// view: its state is Plan.Words(k) words it does not own — the
// inconsistency counter, the listed mask, the known masks, then the
// decoded values packed at the plan's width — the Plan.RowWords(k) words
// of its candidate rows, and a slab of stored packets that grows while the
// path is still being peeled. Plan.Bind binds one over a caller's words,
// as the Recording does over each flow's block for a run of the flow's
// packets or for one answer; the caller keeps the slab (Slab) when the
// view is done. Plan.NewDecoder allocates the words for a decoder of its
// own. A done decoder has no hop left to cascade into its stored packets,
// so it drops them (Observe leaves its slab empty) and reads no candidate
// row again: a decoded hop's row is the one bit of its value, so a done
// decoder may be bound without its rows, and every answer comes from the
// values. Once done, Observe writes nothing but the inconsistency counter.
// The Recording drops a flow's rows once its path decodes, 10 of a
// testbench flow's 37 block words.
type Decoder struct {
	plan *Plan
	k    int
	// w holds the state words: see the st* offsets. known[f] is the
	// bitmask of hops (bit h = hop h+1) whose fragment f is decoded, and
	// the packed value at f*k+h (val) that fragment; hashed mode has the
	// single fragment row 0, holding each hop's universe index. A hop is
	// decoded when every fragment of it is known, so the decoded count is
	// the known rows' intersection, stored nowhere.
	w []uint64
	// rows[h*setWords:][:setWords] is hop h+1's candidate set as a bitset
	// over the universe index (hashed mode only). It is live only once
	// listed has bit h: until a constraint narrows it a hop's set is the
	// whole universe and its row stays all-zero. Empty in a done decoder
	// bound without its rows.
	rows []uint64
	// pkts is the slab of packets stored for cascading, plan.stride words
	// each: id, mask of still-unknown acting hops, frag<<1|dead, then the
	// residual words. Packets are never removed — a hand-off ships the
	// dead ones too — and no index is kept over them: the packets a newly
	// decoded hop cascades into are exactly the stored ones of its
	// fragment that still carry its bit.
	pkts []uint64
}

// MaxPathLen is the longest path a decoder takes: its hop sets are 64-bit
// masks.
const MaxPathLen = 64

// Word offsets within a decoder's state words.
const (
	stInconsistent = 0 // packets contradicting the decoded prefix (§7: path change signal)
	stListed       = 1
	stKnown        = 2 // known, then the packed values
)

// Word offsets within one stored packet of the slab.
const (
	recID     = 0
	recMask   = 1
	recFlags  = 2 // frag<<1 | dead
	recHeader = 3 // the residual words follow
)

// Words returns how many state words a decoder for a k-hop path takes:
// the two fixed words and a known mask per fragment, then the frags·k
// decoded values packed per to a word — 4 for a 5-hop path over a
// universe of up to 4,096 switches. It is not affine in k.
func (p *Plan) Words(k int) int { return stKnown + p.frags + (p.frags*k+p.per-1)/p.per }

// RowWords returns how many words a k-hop decoder's candidate rows take:
// k bitsets over the universe in hashed mode, none in raw mode.
func (p *Plan) RowWords(k int) int { return k * p.setWords }

// Bind makes d a decoder for a k-hop path of the plan's query over state
// words (Words(k) of them, all zero for a decoder that has seen nothing),
// candidate rows (RowWords(k) of them, all zero likewise, or nil for a
// done decoder) and a slab of stored packets (nil for none). Observe
// writes the words and rows in place and may grow the slab; the caller
// stores Slab afterwards. k must be in [1, MaxPathLen]. d is filled in
// place, not returned, so a caller can bind a decoder it keeps, as the
// Recording keeps one per path query for a run of a flow's packets.
func (p *Plan) Bind(d *Decoder, k int, words, rows, pkts []uint64) {
	n := p.Words(k)
	if rows != nil {
		rows = rows[:p.RowWords(k):p.RowWords(k)]
	}
	d.plan, d.k, d.w, d.rows, d.pkts = p, k, words[:n:n], rows, pkts
}

// NewDecoder builds a decoder for a k-hop path of the plan's query, with
// state words of its own.
func (p *Plan) NewDecoder(k int) (*Decoder, error) {
	if k < 1 || k > MaxPathLen {
		return nil, fmt.Errorf("coding: path length %d out of [1,%d]", k, MaxPathLen)
	}
	d, w := &Decoder{}, make([]uint64, p.Words(k)+p.RowWords(k))
	p.Bind(d, k, w, w[p.Words(k):], nil)
	return d, nil
}

// Clone returns a decoder equal to d with state of its own: its words,
// rows and slab are copies, and a done decoder bound without its rows
// gets them back, each hop's the bit of its universe index.
func (d *Decoder) Clone() *Decoder {
	p, rows := d.plan, slices.Clone(d.rows)
	if len(rows) < p.RowWords(d.k) {
		rows = make([]uint64, p.RowWords(d.k))
		for h := range d.k {
			i := d.val(h)
			rows[uint64(h*p.setWords)+i/64] |= 1 << (i % 64)
		}
	}
	c := &Decoder{}
	p.Bind(c, d.k, slices.Clone(d.w), rows, slices.Clone(d.pkts))
	return c
}

// Slab returns the decoder's stored packets, which Observe may have grown
// and empties once the decoder is done: a caller that bound the view keeps
// them for the next one.
func (d *Decoder) Slab() []uint64 { return d.pkts }

// known is the known masks' part of the state words (see Decoder.w).
func (d *Decoder) known() []uint64 { return d.w[stKnown : stKnown+d.plan.frags] }

// val returns the packed value at position j: fragment j/k of hop j%k+1.
func (d *Decoder) val(j int) uint64 {
	p := d.plan
	return d.w[stKnown+p.frags+j/p.per] >> uint(j%p.per*p.width) & p.valMask
}

// setVal packs v, which fits the plan's width, at position j, whose field
// is zero until its hop's fragment decodes.
func (d *Decoder) setVal(j int, v uint64) {
	p := d.plan
	d.w[stKnown+p.frags+j/p.per] |= v << uint(j%p.per*p.width)
}

// NewDecoder builds a one-off plan and a decoder for a k-hop path on it.
// In hashed mode universe must hold the distinct possible block values; in
// raw mode it is ignored. A caller decoding many flows of one query builds
// the Plan once.
func NewDecoder(cfg Config, g hash.Global, k int, universe []uint64) (*Decoder, error) {
	enc, err := NewEncoder(cfg, g)
	if err != nil {
		return nil, err
	}
	p, err := NewPlan(enc, universe)
	if err != nil {
		return nil, err
	}
	return p.NewDecoder(k)
}

// Inconsistent returns the number of packets whose digest contradicted the
// already-decoded blocks. A burst of these signals a route change (§7).
func (d *Decoder) Inconsistent() int { return int(d.w[stInconsistent]) }

// actingSet recomputes which hops modified the packet, exactly as the
// encoders decided.
func (d *Decoder) actingSet(id uint64, layer int) uint64 {
	p := d.plan
	if layer == 0 {
		w := p.enc.g.ReservoirWinner(id, d.k)
		return 1 << uint(w-1)
	}
	return p.enc.g.ActMask(id, d.k, p.enc.layerThresh[layer-1])
}

// Observe consumes one extracted digest (the plan's words per digest; a
// missing word reads as zero). It returns true when the whole message is
// decoded.
func (d *Decoder) Observe(id uint64, dig Digest) bool {
	p := d.plan
	layer := p.enc.cfg.Layering.Select(p.enc.g.LayerPoint(id))
	mask := d.actingSet(id, layer)
	if mask == 0 {
		return d.Done() // no encoder touched this packet
	}
	frag := 0
	if p.enc.cfg.Mode == ModeRaw {
		frag = p.enc.g.Fragment(id, p.frags)
	}
	// The residual is worked on in the caller's frame: most packets are
	// explained (or become a single constraint) on arrival and never need
	// stored state.
	var buf [8]uint64
	res := buf[:]
	if p.words > len(buf) {
		res = make([]uint64, p.words)
	}
	res = res[:p.words]
	copy(res, dig.Words)
	// Strip hops whose block (fragment) is already decoded.
	known := d.w[stKnown+frag]
	for m := mask & known; m != 0; m &= m - 1 {
		d.stripHop(bits.TrailingZeros64(m), frag, id, res)
	}
	mask &^= known
	switch bits.OnesCount64(mask) {
	case 0:
		// Fully explained; verify consistency as a route-change detector.
		// Overwrite (layer 0) packets must match the winner's payload
		// exactly; xor packets must have zero residual.
		d.checkExplained(res)
	case 1:
		d.applyConstraint(bits.TrailingZeros64(mask), frag, id, res)
	default:
		// Stored for cascading: the residual moves off the stack into the
		// slab.
		d.pkts = append(append(slices.Grow(d.pkts, p.stride), id, mask, uint64(frag)<<1), res...)
	}
	if !d.Done() {
		return false
	}
	// No hop is left to cascade into a stored packet: a done decoder keeps
	// none.
	d.pkts = d.pkts[:0]
	return true
}

// checkExplained counts a packet whose acting hops are all decoded and
// whose residual is not zero.
func (d *Decoder) checkExplained(res []uint64) {
	for _, w := range res {
		if w != 0 {
			d.w[stInconsistent]++
			return
		}
	}
}

// stripHop xors decoded hop's (0-based) contribution out of a residual.
func (d *Decoder) stripHop(hop, frag int, id uint64, res []uint64) {
	p := d.plan
	v := d.val(frag*d.k + hop)
	if p.enc.cfg.Mode == ModeRaw {
		res[0] ^= v
		return
	}
	v = p.universe[v]
	for i := range res {
		res[i] ^= p.enc.insts[i].ValueDigest(v, id, p.enc.cfg.Bits)
	}
}

// matches reports whether universe value v satisfies h_i(v, pkt) = res[i]
// for every instance from the given one on.
func (p *Plan) matches(v, id uint64, res []uint64, from int) bool {
	for i := from; i < len(res); i++ {
		if p.enc.insts[i].ValueDigest(v, id, p.enc.cfg.Bits) != res[i] {
			return false
		}
	}
	return true
}

// applyConstraint consumes a residual whose only unknown acting hop is hop
// (0-based): the fragment itself in raw mode, a filter on the hop's
// candidate set in hashed mode. The filter allocates nothing and, when no
// candidate would survive it, leaves the set untouched and counts an
// inconsistency: the true value always satisfies its own constraints, so
// an empty set means the packet contradicts reality (route change, wrong
// k).
func (d *Decoder) applyConstraint(hop, frag int, id uint64, res []uint64) {
	p := d.plan
	if p.enc.cfg.Mode == ModeRaw {
		d.setFragment(hop, frag, res[0])
		return
	}
	row := d.rows[hop*p.setWords:][:p.setWords]
	n, last := 0, 0
	if d.w[stListed]>>uint(hop)&1 == 0 {
		// First filter of the hop: instance 0 of the whole universe, 64
		// values (one bitset word) at a time through the column kernel. The
		// row is all-zero until now and stays so if nothing survives.
		var hashes [64]uint64
		for w := range row {
			chunk := p.universe[w*64 : min(w*64+64, len(p.universe))]
			p.enc.insts[0].ValueHashColumn(hashes[:len(chunk)], chunk, id)
			var word uint64
			for i, h := range hashes[:len(chunk)] {
				if h>>p.shift == res[0] && p.matches(chunk[i], id, res, 1) {
					word |= 1 << uint(i)
					n, last = n+1, w*64+i
				}
			}
			row[w] = word
		}
		if n == 0 {
			d.w[stInconsistent]++
			return
		}
		d.w[stListed] |= 1 << uint(hop)
	} else {
		// Narrowing a listed set in place: nothing is cleared before the
		// first survivor is found, so a filter no candidate passes has
		// written nothing; what it skipped is cleared once one is.
		first := -1
		for w := range row {
			for m := row[w]; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				switch {
				case p.matches(p.universe[w*64+i], id, res, 0):
					if first < 0 {
						first = w*64 + i
					}
					n, last = n+1, w*64+i
				case first >= 0:
					row[w] &^= 1 << uint(i)
				}
			}
		}
		if first < 0 {
			d.w[stInconsistent]++
			return
		}
		clear(row[:first/64])
		row[first/64] &^= 1<<uint(first%64) - 1
	}
	if n == 1 {
		d.setValue(hop, uint64(last))
	}
}

// setValue marks a hashed-mode hop as decoded as universe index i and
// cascades.
func (d *Decoder) setValue(hop int, i uint64) {
	if d.w[stKnown]>>uint(hop)&1 != 0 {
		return
	}
	d.w[stKnown] |= 1 << uint(hop)
	d.setVal(hop, i)
	d.cascade(hop, 0)
}

// setFragment records fragment frag of hop (raw mode) and cascades within
// that fragment's packet population. A residual is a digest's Bits bits;
// a wider one is cut to them.
func (d *Decoder) setFragment(hop, frag int, bitsVal uint64) {
	bit, j := uint64(1)<<uint(hop), frag*d.k+hop
	bitsVal &= d.plan.valMask
	if d.w[stKnown+frag]&bit != 0 {
		if d.val(j) != bitsVal {
			d.w[stInconsistent]++
		}
		return
	}
	d.w[stKnown+frag] |= bit
	d.setVal(j, bitsVal)
	d.cascade(hop, frag)
}

// cascade revisits, in arrival order, the stored packets a newly decoded
// hop (fragment) explains part of: the live ones of its fragment that
// carry its bit.
func (d *Decoder) cascade(hop, frag int) {
	stride := d.plan.stride
	bit, live := uint64(1)<<uint(hop), uint64(frag)<<1
	for at := 0; at < len(d.pkts); at += stride {
		rec := d.pkts[at : at+stride]
		if rec[recFlags] != live || rec[recMask]&bit == 0 {
			continue
		}
		id, res := rec[recID], rec[recHeader:]
		d.stripHop(hop, frag, id, res)
		rec[recMask] &^= bit
		switch bits.OnesCount64(rec[recMask]) {
		case 0:
			rec[recFlags] |= 1
			d.checkExplained(res)
		case 1:
			rec[recFlags] |= 1
			d.applyConstraint(bits.TrailingZeros64(rec[recMask]), frag, id, res)
		}
	}
}

// MissingHops returns the number of hops not yet fully decoded — Fig 5's
// y-axis.
func (d *Decoder) MissingHops() int { return d.k - d.decodedHops() }

// Done reports whether every hop is decoded.
func (d *Decoder) Done() bool { return d.decodedHops() == d.k }

// decodedHops counts the hops whose every fragment is known.
func (d *Decoder) decodedHops() int {
	all := ^uint64(0)
	for _, known := range d.known() {
		all &= known
	}
	return bits.OnesCount64(all)
}

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
// trustworthy: every fragment known, the fragments reassembled.
func (d *Decoder) hopBlock(h int) (uint64, bool) {
	var v uint64
	for f, known := range d.known() {
		if known>>uint(h)&1 == 0 {
			return 0, false
		}
		v |= d.val(f*d.k+h) << uint(f*d.plan.enc.cfg.Bits)
	}
	if d.plan.universe != nil {
		v = d.plan.universe[v]
	}
	return v, true
}
