package coding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/stateread"
)

// Exact decoder-state serialization for the fleet-resize hand-off path.
// A flow's decoder is incremental: the packets it has buffered, the
// blocks it has solved, and the candidate sets it has narrowed all feed
// future Observe calls. Moving the flow to another collector therefore
// ships this complete mutable state; the destination reconstructs a
// decoder whose every future Observe/Path/MissingHops answer is
// identical to the original's. Only observation state travels — the
// plan-derived configuration (Config, hash globals, universe) is rebuilt
// on the destination from its own compiled plan, a decoder bound over
// fresh words (Plan.Bind), and the blob carries the geometry (k,
// fragments, universe size) so a mismatched plan is an error, not silent
// corruption.

const decoderStateVersion = 1

const stateWhat = "coding: decoder state"

// readFlag reads a byte AppendState writes as 0 or 1.
func readFlag(r *stateread.Reader) uint64 {
	v := r.Uvarint()
	if r.Err == nil && v > 1 {
		r.Failf("flag %d is neither 0 nor 1", v)
		return 0
	}
	return v
}

func readCount(r *stateread.Reader, what string) int {
	n := r.Uvarint()
	if r.Err == nil && n > uint64(r.Len())+1 { // every element is >= 1 byte
		r.Failf("claims %d %s with %d bytes left", n, what, r.Len())
	}
	return int(n)
}

// PeekState reads the path length out of an AppendState blob, and
// whether it claims every hop decoded, so a caller can lay out the right
// decoder (Plan.Words(k), Plan.RowWords(k), Plan.Bind) before calling
// RestoreState: one that claims a decoded path may be restored without
// candidate rows.
func PeekState(data []byte) (k int, decoded bool, err error) {
	r := stateread.New(stateWhat, data)
	if v := r.Uvarint(); r.Err == nil && v != decoderStateVersion {
		return 0, false, fmt.Errorf("coding: decoder state version %d (have %d)", v, decoderStateVersion)
	}
	n := r.Uvarint()
	for range 4 { // fragments, universe size, observed, inconsistent
		r.Uvarint()
	}
	hops := r.Uvarint()
	if r.Err != nil {
		return 0, false, r.Err
	}
	return int(n), hops == n, nil
}

// AppendState appends the decoder's complete observation state to dst.
func (d *Decoder) AppendState(dst []byte) []byte {
	p := d.plan
	dst = append(dst, decoderStateVersion)
	dst = binary.AppendUvarint(dst, uint64(d.k))
	dst = binary.AppendUvarint(dst, uint64(p.frags))
	dst = binary.AppendUvarint(dst, uint64(len(p.universe)))
	dst = binary.AppendUvarint(dst, d.w[stObserved])
	dst = binary.AppendUvarint(dst, d.w[stInconsistent])
	dst = binary.AppendUvarint(dst, uint64(d.decodedHops()))
	vals := d.vals()
	for f, known := range d.known() {
		for h := 0; h < d.k; h++ {
			dst = append(dst, byte(known>>uint(h)&1))
			dst = binary.AppendUvarint(dst, vals[f*d.k+h])
		}
	}
	if p.enc.cfg.Mode != ModeHashed {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		for h := 0; h < d.k; h++ {
			if d.w[stListed]>>uint(h)&1 == 0 {
				dst = append(dst, 0)
				continue
			}
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(d.CandidateCount(h+1)))
			if d.w[stKnown]>>uint(h)&1 != 0 {
				// The one candidate of a decoded hop, which a done decoder
				// may hold no row for.
				dst = binary.AppendUvarint(dst, vals[h])
				continue
			}
			for w, word := range d.candidates(h) {
				for ; word != 0; word &= word - 1 {
					dst = binary.AppendUvarint(dst, p.universe[w*64+bits.TrailingZeros64(word)])
				}
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.pkts)/p.stride))
	for at := 0; at < len(d.pkts); at += p.stride {
		rec := d.pkts[at : at+p.stride]
		dst = binary.AppendUvarint(dst, rec[recID])
		dst = binary.AppendUvarint(dst, rec[recFlags]>>1)
		dst = binary.AppendUvarint(dst, rec[recMask])
		dst = append(dst, byte(rec[recFlags]&1))
		dst = binary.AppendUvarint(dst, uint64(p.words))
		for _, w := range rec[recHeader:] {
			dst = binary.AppendUvarint(dst, w)
		}
	}
	// The pending index of each (fragment, hop): the stored packets a
	// decode of it would cascade into, absent once it is decoded or when
	// there are none.
	for f := range d.known() {
		for h := 0; h < d.k; h++ {
			n := 0
			for ix := d.nextPending(f, h, 0); ix >= 0; ix = d.nextPending(f, h, ix+1) {
				n++
			}
			if n == 0 {
				dst = append(dst, 0)
				continue
			}
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(n))
			for ix := d.nextPending(f, h, 0); ix >= 0; ix = d.nextPending(f, h, ix+1) {
				dst = binary.AppendUvarint(dst, uint64(ix))
			}
		}
	}
	return dst
}

// nextPending returns the index of the first stored packet at or after
// from that a decode of fragment f of hop h (0-based) would cascade into —
// one of that fragment still carrying the hop's bit, dead or not — or -1.
// A decoded hop has none: its cascade has run.
func (d *Decoder) nextPending(f, h, from int) int {
	bit := uint64(1) << uint(h)
	if d.w[stKnown+f]&bit != 0 {
		return -1
	}
	stride := d.plan.stride
	for at := from * stride; at < len(d.pkts); at += stride {
		if d.pkts[at+recFlags]>>1 == uint64(f) && d.pkts[at+recMask]&bit != 0 {
			return at / stride
		}
	}
	return -1
}

// RestoreState loads an AppendState blob into a freshly constructed
// decoder (same query, same path length — the blob's geometry is
// checked): one whose state words and candidate rows are all zero, or
// that has no rows for a decoded state, and whose slab is empty. A blob
// is accepted only if AppendState could have written it for this plan —
// canonical varints and flags, every stored packet within the decoder's
// geometry, no value for an undecoded block,
// candidate lists in universe order, a decoded hashed-mode hop listed with
// its value alone and an undecoded one with more than one candidate or
// none, the pending indices and the decoded-hop count those the rest of
// the state implies — so an accepted blob re-serializes to the same bytes,
// cannot index outside the state on a later Observe, and holds the rows a
// decoder that observed its way there would hold. On error the decoder
// must be discarded.
func (d *Decoder) RestoreState(data []byte) error {
	p := d.plan
	if d.w[stObserved] != 0 || len(d.pkts) != 0 {
		return fmt.Errorf("coding: RestoreState on a decoder that already observed packets")
	}
	r := stateread.New(stateWhat, data)
	if v := r.Uvarint(); r.Err == nil && v != decoderStateVersion {
		return fmt.Errorf("coding: decoder state version %d (have %d)", v, decoderStateVersion)
	}
	k := int(r.Uvarint())
	frags := int(r.Uvarint())
	uniLen := int(r.Uvarint())
	observed := r.Uvarint()
	inconsistent := r.Uvarint()
	decodedHops := r.Uvarint()
	if r.Err != nil {
		return r.Err
	}
	if k != d.k || frags != p.frags || uniLen != len(p.universe) {
		return fmt.Errorf("coding: decoder state geometry (k=%d frags=%d universe=%d) does not match decoder (k=%d frags=%d universe=%d)",
			k, frags, uniLen, d.k, p.frags, len(p.universe))
	}
	if observed > math.MaxInt || inconsistent > math.MaxInt {
		return fmt.Errorf("coding: decoder state counters (%d observed, %d inconsistent) overflow", observed, inconsistent)
	}
	decoded := ^uint64(0)
	known, vals := d.known(), d.vals()
	for f := range known {
		for h := 0; h < k; h++ {
			known[f] |= readFlag(r) << uint(h)
			vals[f*k+h] = r.Uvarint()
			if r.Err == nil && known[f]>>uint(h)&1 == 0 && vals[f*k+h] != 0 {
				return fmt.Errorf("coding: fragment %d hop %d: value %d for an undecoded block", f, h+1, vals[f*k+h])
			}
		}
		decoded &= known[f]
	}
	hashed := readFlag(r) != 0
	if r.Err != nil {
		return r.Err
	}
	if n := bits.OnesCount64(decoded); decodedHops != uint64(n) {
		return fmt.Errorf("coding: decoder state claims %d decoded hops, its known blocks make %d", decodedHops, n)
	}
	if hashed != (p.enc.cfg.Mode == ModeHashed) {
		return fmt.Errorf("coding: decoder state mode does not match decoder (hashed=%v)", p.enc.cfg.Mode == ModeHashed)
	}
	if len(d.rows) < p.RowWords(k) && decodedHops != uint64(k) {
		return fmt.Errorf("coding: decoder state of %d decoded hops of %d for a decoder without candidate rows", decodedHops, k)
	}
	for h := 0; hashed && h < k; h++ {
		// A hop decodes when a filter leaves it one candidate, its value.
		decodedHop := known[0]>>uint(h)&1 != 0
		if readFlag(r) == 0 {
			if r.Err == nil && decodedHop {
				return fmt.Errorf("coding: hop %d: decoded, and no candidate list", h+1)
			}
			continue
		}
		n := readCount(r, "candidates")
		switch {
		case r.Err != nil:
			return r.Err
		case n == 0:
			return fmt.Errorf("coding: hop %d: empty candidate list", h+1)
		case n == 1 && !decodedHop:
			return fmt.Errorf("coding: hop %d: one candidate, and not decoded", h+1)
		case n > 1 && decodedHop:
			return fmt.Errorf("coding: hop %d: decoded, and %d candidates", h+1, n)
		}
		// The list must be a subsequence of the universe: anything else is
		// not a set the bitset can hold, nor one a filter could have left.
		at := 0
		for ; n > 0; n-- {
			v := r.Uvarint()
			if r.Err == nil && decodedHop && v != vals[h] {
				return fmt.Errorf("coding: hop %d: decoded as %d, and its candidate is %d", h+1, vals[h], v)
			}
			for at < len(p.universe) && p.universe[at] != v {
				at++
			}
			if r.Err != nil {
				return r.Err
			}
			if at == len(p.universe) {
				return fmt.Errorf("coding: hop %d: candidate %d is not in the universe, or out of universe order", h+1, v)
			}
			if len(d.rows) > 0 {
				d.rows[h*p.setWords+at/64] |= 1 << uint(at%64)
			}
			at++
		}
		d.w[stListed] |= 1 << uint(h)
	}
	nPkts := readCount(r, "packets")
	if r.Err != nil {
		return r.Err
	}
	d.pkts = make([]uint64, 0, nPkts*p.stride)
	for i := 0; i < nPkts; i++ {
		id, frag, mask, dead := r.Uvarint(), r.Uvarint(), r.Uvarint(), readFlag(r)
		nRes := r.Uvarint()
		if r.Err != nil {
			return r.Err
		}
		if frag >= uint64(frags) {
			return fmt.Errorf("coding: packet %d fragment %d out of range", i, frag)
		}
		if k < 64 && mask>>uint(k) != 0 {
			return fmt.Errorf("coding: packet %d mask %#x has hops beyond the path length %d", i, mask, k)
		}
		if nRes != uint64(p.words) {
			return fmt.Errorf("coding: packet %d carries %d residual words, the decoder's digests have %d", i, nRes, p.words)
		}
		d.pkts = append(d.pkts, id, mask, frag<<1|dead)
		for w := 0; w < p.words; w++ {
			d.pkts = append(d.pkts, r.Uvarint())
		}
	}
	for f := range known {
		for h := 0; h < k; h++ {
			want, n := d.nextPending(f, h, 0), 0
			if readFlag(r) != 0 {
				if n = readCount(r, "pending indices"); n == 0 && r.Err == nil {
					return fmt.Errorf("coding: fragment %d hop %d: empty pending index", f, h+1)
				}
			}
			for ; n > 0; n-- {
				ix := r.Uvarint()
				if r.Err != nil {
					return r.Err
				}
				if want < 0 || ix != uint64(want) {
					return fmt.Errorf("coding: fragment %d hop %d: pending index lists packet %d where the stored packets make it %d (-1: none)", f, h+1, ix, want)
				}
				want = d.nextPending(f, h, want+1)
			}
			if r.Err == nil && want >= 0 {
				return fmt.Errorf("coding: fragment %d hop %d: pending index omits packet %d", f, h+1, want)
			}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	d.w[stObserved], d.w[stInconsistent] = observed, inconsistent
	return nil
}
