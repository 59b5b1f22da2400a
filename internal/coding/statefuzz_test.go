package coding

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/hash"
)

// FuzzDecoderState: whatever words arrive as a decoder's image — its state
// words, then its candidate rows unless rowless, then its slab — Check
// either refuses them or they are a state a decoder bound over them (1)
// images to the very same bytes, (2) takes 256 further packets, genuine
// encodings and arbitrary words alike, rebinding over copies of itself on
// the way (without rows once done), without indexing outside its state,
// and (3) leaves in a state Check accepts again, which answers and
// clones. plan picks the decoder the image is offered to: the hashed
// one-instance k=5 decoder of hostileStates, or one of the pinned stream
// shapes at k=5 and k=25. Seeds are hostileStates, one row per rule Check
// holds, and real states: fresh, mid-decode at a few depths, finished.
func FuzzDecoderState(f *testing.F) {
	type target struct {
		s    *stateStream
		path []uint64
	}
	targets := []target{{s: &stateStream{
		cfg: Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(5, true)},
		g:   hash.NewGlobal(3), k: 5, universe: universeWith(pathValues(5), 60),
	}, path: pathValues(5)}}
	for _, h := range hostileStates(targets[0].s.universe) {
		f.Add(uint8(0), h.rows == nil, h.image(), uint64(1))
	}
	for _, c := range stateCases {
		for _, k := range []int{5, 25} {
			s := newStateStream(f, c, k)
			targets = append(targets, target{s, pathValues(k)})
			d := s.decoder(f)
			for i, id := range s.ids {
				if i == 0 || i == 3 || i == 2*k || i == 6*k || i == len(s.ids)-1 {
					f.Add(uint8(len(targets)-1), false, appendImage(nil, d), id)
				}
				d.Observe(id, s.digs[i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, plan uint8, rowless bool, image []byte, seed uint64) {
		tg := targets[int(plan)%len(targets)]
		p, k := tg.s.decoder(t).plan, tg.s.k
		if len(image)%8 != 0 {
			return
		}
		ws := make([]uint64, len(image)/8)
		for i := range ws {
			ws[i] = binary.LittleEndian.Uint64(image[8*i:])
		}
		nw, nr := p.Words(k), p.RowWords(k)
		if rowless {
			nr = 0
		}
		if len(ws) < nw+nr {
			return
		}
		words, rows, slab := ws[:nw], ws[nw:nw+nr], ws[nw+nr:]
		if rowless {
			rows = nil
		}
		if p.Check(k, words, rows, slab) != nil {
			return
		}
		d := bindCopy(p, k, words, rows, slab)
		if again := appendImage(nil, d); !bytes.Equal(again, image) {
			t.Fatalf("accepted state images differently:\n got %x\nwant %x", again, image)
		}
		enc, err := NewEncoder(tg.s.cfg, tg.s.g)
		if err != nil {
			t.Fatal(err)
		}
		rng := hash.NewRNG(seed)
		for i := 0; i < 256; i++ {
			id := rng.Uint64()
			dig := enc.EncodePath(id, tg.path)
			if rng.Uint64()%4 == 0 {
				for w := range dig.Words {
					dig.Words[w] = hash.Bits(rng.Uint64(), tg.s.cfg.Bits)
				}
			}
			d.Observe(id, dig)
			if i%64 == 63 {
				// Go on in a decoder bound over copies of d's state, without
				// candidate rows once it is done.
				rows := d.rows
				if d.Done() {
					rows = nil
				}
				c := bindCopy(p, k, d.w, rows, d.pkts)
				if !sameState(c, d) {
					t.Fatal("a copy holds another state than its original")
				}
				d = c
			}
		}
		// What the decoder became is again a state Check accepts.
		if err := p.Check(k, d.w, d.rows, d.pkts); err != nil {
			t.Fatalf("a state the decoder reached was refused: %v", err)
		}
		d.Path()
		d.MissingHops()
		if c := d.Clone(); !slices.Equal(c.w, d.w) {
			t.Fatal("a clone holds other words")
		}
	})
}
