package coding

import (
	"fmt"
	"math"
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
}

// NewPlan builds the decode side of enc. In hashed mode universe must hold
// the distinct possible block values; raw mode ignores it.
func NewPlan(enc *Encoder, universe []uint64) (*Plan, error) {
	cfg := enc.cfg
	p := &Plan{enc: *enc, frags: cfg.Fragments(), words: cfg.instances(), shift: 64 - uint(cfg.Bits)}
	p.stride = recHeader + p.words
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
	}
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
// deployment, §4.1); everything else comes from its Plan. Its own state is
// flat: one block allocated with it (known, vals, cand) and one slab of
// stored packets that grows while the path is still being peeled.
//
// Frozen-share rule: once Done(), Observe writes nothing but the observed
// and inconsistent counters, which live in the Decoder struct itself — so
// Clone of a finished decoder copies the struct and shares block and slab,
// and the two sides may keep observing from different goroutines.
type Decoder struct {
	plan *Plan
	k    int

	observed     int
	inconsistent int // packets contradicting the decoded prefix (§7: path change signal)
	decodedHops  int

	// known[f] is the bitmask of hops (bit h = hop h+1) whose fragment f is
	// decoded, vals[f*k+h] that fragment; hashed mode has the single
	// fragment row 0 holding whole values.
	known []uint64
	vals  []uint64
	// cand[h*setWords:][:setWords] is hop h+1's candidate set as a bitset
	// over the universe index (hashed mode only). It is live only once
	// listed has bit h: until a constraint narrows it a hop's set is the
	// whole universe and its row stays all-zero.
	cand   []uint64
	listed uint64

	// pkts is the slab of packets stored for cascading, plan.stride words
	// each: id, mask of still-unknown acting hops, frag<<1|dead, then the
	// residual words. Packets are never removed — a hand-off ships the
	// dead ones too — and no index is kept over them: the packets a newly
	// decoded hop cascades into are exactly the stored ones of its
	// fragment that still carry its bit.
	pkts []uint64
}

// Word offsets within one stored packet of the slab.
const (
	recID     = 0
	recMask   = 1
	recFlags  = 2 // frag<<1 | dead
	recHeader = 3 // the residual words follow
)

// NewDecoder builds a decoder for a k-hop path of the plan's query.
func (p *Plan) NewDecoder(k int) (*Decoder, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("coding: path length %d out of [1,64]", k)
	}
	d := &Decoder{plan: p, k: k}
	d.carve(make([]uint64, p.frags+p.frags*k+k*p.setWords))
	return d, nil
}

// carve points known, vals and cand at their parts of one block.
func (d *Decoder) carve(block []uint64) {
	f, fk := d.plan.frags, d.plan.frags*d.k
	d.known, d.vals, d.cand = block[:f:f], block[f:f+fk:f+fk], block[f+fk:]
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

// K returns the path length being decoded.
func (d *Decoder) K() int { return d.k }

// Clone returns a decoder that answers, serializes and keeps observing
// exactly as d would, independently of it. A finished decoder's block and
// slab are never written again (the frozen-share rule), so its clone is
// the struct alone; an unfinished one is copied whole.
func (d *Decoder) Clone() *Decoder {
	c := *d
	if !d.Done() {
		c.carve(slices.Concat(d.known, d.vals, d.cand))
		c.pkts = slices.Clone(d.pkts)
	}
	return &c
}

// Inconsistent returns the number of packets whose digest contradicted the
// already-decoded blocks. A burst of these signals a route change (§7).
func (d *Decoder) Inconsistent() int { return d.inconsistent }

// actingSet recomputes which hops modified the packet, exactly as the
// encoders decided.
func (d *Decoder) actingSet(id uint64, layer int) uint64 {
	p := d.plan
	if layer == 0 {
		w := p.enc.g.ReservoirWinner(id, d.k)
		return 1 << uint(w-1)
	}
	var mask uint64
	for hop := 1; hop <= d.k; hop++ {
		if p.enc.g.ActBelow(id, hop, p.enc.layerThresh[layer-1]) {
			mask |= 1 << uint(hop-1)
		}
	}
	return mask
}

// Observe consumes one extracted digest (the plan's words per digest; a
// missing word reads as zero). It returns true when the whole message is
// decoded.
func (d *Decoder) Observe(id uint64, dig Digest) bool {
	p := d.plan
	d.observed++
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
	for m := mask & d.known[frag]; m != 0; m &= m - 1 {
		d.stripHop(bits.TrailingZeros64(m), frag, id, res)
	}
	mask &^= d.known[frag]
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
	return d.Done()
}

// checkExplained counts a packet whose acting hops are all decoded and
// whose residual is not zero.
func (d *Decoder) checkExplained(res []uint64) {
	for _, w := range res {
		if w != 0 {
			d.inconsistent++
			return
		}
	}
}

// stripHop xors decoded hop's (0-based) contribution out of a residual.
func (d *Decoder) stripHop(hop, frag int, id uint64, res []uint64) {
	p := d.plan
	v := d.vals[frag*d.k+hop]
	if p.enc.cfg.Mode == ModeRaw {
		res[0] ^= v
		return
	}
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
	row := d.cand[hop*p.setWords:][:p.setWords]
	n, last := 0, 0
	if d.listed>>uint(hop)&1 == 0 {
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
			d.inconsistent++
			return
		}
		d.listed |= 1 << uint(hop)
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
			d.inconsistent++
			return
		}
		clear(row[:first/64])
		row[first/64] &^= 1<<uint(first%64) - 1
	}
	if n == 1 {
		d.setValue(hop, p.universe[last])
	}
}

// setValue marks a hashed-mode hop as decoded and cascades.
func (d *Decoder) setValue(hop int, v uint64) {
	if d.known[0]>>uint(hop)&1 != 0 {
		return
	}
	d.known[0] |= 1 << uint(hop)
	d.vals[hop] = v
	d.decodedHops++
	d.cascade(hop, 0)
}

// setFragment records fragment frag of hop (raw mode) and cascades within
// that fragment's packet population.
func (d *Decoder) setFragment(hop, frag int, bitsVal uint64) {
	bit := uint64(1) << uint(hop)
	if d.known[frag]&bit != 0 {
		if d.vals[frag*d.k+hop] != bitsVal {
			d.inconsistent++
		}
		return
	}
	d.known[frag] |= bit
	d.vals[frag*d.k+hop] = bitsVal
	full := true
	for _, known := range d.known {
		full = full && known&bit != 0
	}
	if full {
		d.decodedHops++
	}
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
// trustworthy: every fragment known, the fragments reassembled.
func (d *Decoder) hopBlock(h int) (uint64, bool) {
	var v uint64
	for f, known := range d.known {
		if known>>uint(h)&1 == 0 {
			return 0, false
		}
		v |= d.vals[f*d.k+h] << uint(f*d.plan.enc.cfg.Bits)
	}
	return v, true
}

// candidates returns hop h's (0-based) narrowed candidate set, nil while
// it is still the whole universe (hashed mode).
func (d *Decoder) candidates(h int) []uint64 {
	if d.listed>>uint(h)&1 == 0 {
		return nil
	}
	return d.cand[h*d.plan.setWords:][:d.plan.setWords]
}

// CandidateCount returns the number of values still possible for a hop
// (1-based); raw mode returns 1 when decoded and the full space otherwise.
func (d *Decoder) CandidateCount(hop int) int {
	h, p := hop-1, d.plan
	if p.enc.cfg.Mode == ModeHashed {
		row := d.candidates(h)
		if row == nil {
			return len(p.universe)
		}
		n := 0
		for _, w := range row {
			n += bits.OnesCount64(w)
		}
		return n
	}
	if d.known[0]>>uint(h)&1 != 0 {
		return 1
	}
	if p.enc.cfg.ValueBits >= 62 {
		return math.MaxInt32
	}
	return 1 << uint(p.enc.cfg.ValueBits)
}
