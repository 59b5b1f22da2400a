package coding

import (
	"fmt"
	"math"
	"math/bits"
)

// A decoder's state is its words, its candidate rows and its slab
// (Decoder): the fleet-resize hand-off moves them as they are, and the
// destination binds a decoder over its copies (Bind) once Check has
// accepted them. Only observation state travels; the plan — Config, hash
// families, universe — is the destination's own, which the hand-off's
// plan hash holds equal to the source's.

// Check reports whether words, rows and slab are a state a decoder for a
// k-hop path of the plan could have reached by observing packets, so that
// one bound over them answers, observes and clones without indexing
// outside its state: Words(k) state words, RowWords(k) rows or none for a
// done decoder, and a slab of whole stored packets, none for a done one.
// It holds
//
//   - k to [1, MaxPathLen], the counter to at most math.MaxInt, and the
//     known and listed hops to the path;
//   - no packed bits for an undecoded block or past the path's values,
//     and a decoded hashed-mode hop's index to the universe;
//   - in hashed mode, a hop listed exactly when its row is nonempty, rows
//     only over the universe, a decoded hop listed and its row exactly its
//     index's bit, and an undecoded listed hop's row more than one bit; in
//     raw mode, no hop listed;
//   - the slab to whole packets, each of a fragment of the plan and on hops
//     of the path: a live one waiting on two hops or more, none of them
//     decoded in its fragment, a dead one on one hop at most.
func (p *Plan) Check(k int, words, rows, slab []uint64) error {
	if k < 1 || k > MaxPathLen {
		return fmt.Errorf("coding: path length %d out of [1,%d]", k, MaxPathLen)
	}
	if len(words) != p.Words(k) {
		return fmt.Errorf("coding: %d state words for a %d-hop decoder of %d", len(words), k, p.Words(k))
	}
	d := Decoder{plan: p, k: k, w: words}
	if d.w[stInconsistent] > math.MaxInt {
		return fmt.Errorf("coding: decoder state counter (%d inconsistent) overflows", d.w[stInconsistent])
	}
	path := ^uint64(0)
	if k < 64 {
		path = 1<<uint(k) - 1
	}
	known := d.known()
	for f, m := range known {
		if m&^path != 0 {
			return fmt.Errorf("coding: fragment %d known on hops %#x beyond the path length %d", f, m, k)
		}
		for h := range k {
			if v := d.val(f*k + h); m>>uint(h)&1 == 0 && v != 0 {
				return fmt.Errorf("coding: fragment %d hop %d: value %d for an undecoded block", f, h+1, v)
			}
		}
	}
	for i, w := range words[stKnown+p.frags:] {
		n := min(p.per, p.frags*k-i*p.per)
		if past := w &^ (1<<uint(n*p.width) - 1); past != 0 {
			return fmt.Errorf("coding: packed value word %d: bits %#x past the path's %d values", i, past, p.frags*k)
		}
	}
	if err := d.checkRows(rows, path); err != nil {
		return err
	}
	if len(slab)%p.stride != 0 {
		return fmt.Errorf("coding: slab of %d words is no whole number of %d-word packets", len(slab), p.stride)
	}
	for at := 0; at < len(slab); at += p.stride {
		i, mask, frag, dead := at/p.stride, slab[at+recMask], slab[at+recFlags]>>1, slab[at+recFlags]&1 != 0
		switch n := bits.OnesCount64(mask); {
		case frag >= uint64(p.frags):
			return fmt.Errorf("coding: packet %d fragment %d out of range", i, frag)
		case mask&^path != 0:
			return fmt.Errorf("coding: packet %d mask %#x has hops beyond the path length %d", i, mask, k)
		case dead && n > 1:
			return fmt.Errorf("coding: packet %d is dead and waits on %d hops", i, n)
		case !dead && n < 2:
			return fmt.Errorf("coding: packet %d is live and waits on %d hops", i, n)
		case !dead && mask&known[frag] != 0:
			return fmt.Errorf("coding: packet %d waits on decoded hops %#x", i, mask&known[frag])
		}
	}
	if d.Done() && len(slab) != 0 {
		return fmt.Errorf("coding: a done decoder with a slab of %d words", len(slab))
	}
	return nil
}

// checkRows is Check's part for the listed hops and candidate rows.
func (d *Decoder) checkRows(rows []uint64, path uint64) error {
	p, k, listed := d.plan, d.k, d.w[stListed]
	if p.enc.cfg.Mode != ModeHashed {
		if listed != 0 || len(rows) != 0 {
			return fmt.Errorf("coding: raw-mode decoder state with hops listed (%#x) or %d row words", listed, len(rows))
		}
		return nil
	}
	if listed&^path != 0 {
		return fmt.Errorf("coding: hops %#x listed beyond the path length %d", listed, k)
	}
	switch {
	case len(rows) == 0 && !d.Done():
		return fmt.Errorf("coding: decoder state of %d decoded hops of %d without candidate rows", d.decodedHops(), k)
	case len(rows) != 0 && len(rows) != p.RowWords(k):
		return fmt.Errorf("coding: %d candidate row words for a %d-hop decoder of %d", len(rows), k, p.RowWords(k))
	}
	spare := uint(len(p.universe) % 64)
	for h := range k {
		decoded, isListed := d.w[stKnown]>>uint(h)&1 != 0, listed>>uint(h)&1 != 0
		if decoded {
			if !isListed {
				return fmt.Errorf("coding: hop %d: decoded, and not listed", h+1)
			}
			at := d.val(h)
			if at >= uint64(len(p.universe)) {
				return fmt.Errorf("coding: hop %d: decoded as universe index %d, past the universe's %d values", h+1, at, len(p.universe))
			}
			if len(rows) == 0 {
				continue
			}
			row := rows[h*p.setWords:][:p.setWords]
			for w, word := range row {
				if want := uint64(1) << (at % 64); uint64(w) == at/64 && word != want || uint64(w) != at/64 && word != 0 {
					return fmt.Errorf("coding: hop %d: decoded as universe index %d, and its row holds other candidates", h+1, at)
				}
			}
			continue
		}
		if len(rows) == 0 {
			continue
		}
		row := rows[h*p.setWords:][:p.setWords]
		if spare != 0 && row[len(row)-1]>>spare != 0 {
			return fmt.Errorf("coding: hop %d: candidates beyond the universe's %d values", h+1, len(p.universe))
		}
		n := 0
		for _, word := range row {
			n += bits.OnesCount64(word)
		}
		switch {
		case isListed && n == 0:
			return fmt.Errorf("coding: hop %d: listed, and no candidate", h+1)
		case !isListed && n != 0:
			return fmt.Errorf("coding: hop %d: not listed, and %d candidates", h+1, n)
		case isListed && n == 1:
			return fmt.Errorf("coding: hop %d: one candidate, and not decoded", h+1)
		}
	}
	return nil
}
