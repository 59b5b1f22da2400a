package coding

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hash"
)

// FuzzDecoderState: whatever bytes arrive as a decoder state, RestoreState
// either refuses them or yields a decoder that (1) re-serializes to the
// very same bytes — the blob was one AppendState could have written — and
// (2) takes 256 further packets, genuine encodings and arbitrary words
// alike, cloning and serializing on the way, without indexing outside its
// state. plan picks the decoder the blob is offered to: the hashed
// one-instance k=5 decoder of TestDecoderStateRejectsCorrupt's hand-built
// states, or one of the pinned stream shapes at k=5 and k=25.
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
		f.Add(uint8(0), h.blob, uint64(1))
	}
	for _, c := range stateCases {
		for _, k := range []int{5, 25} {
			s := newStateStream(f, c, k)
			targets = append(targets, target{s, pathValues(k)})
			// Real states: fresh, mid-decode at a few depths, finished.
			d := s.decoder(f)
			for i, id := range s.ids {
				if i == 0 || i == 3 || i == 2*k || i == 6*k || i == len(s.ids)-1 {
					f.Add(uint8(len(targets)-1), d.AppendState(nil), id)
				}
				d.Observe(id, s.digs[i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, plan uint8, blob []byte, seed uint64) {
		tg := targets[int(plan)%len(targets)]
		d := tg.s.decoder(t)
		if err := d.RestoreState(blob); err != nil {
			return
		}
		if again := d.AppendState(nil); !bytes.Equal(again, blob) {
			t.Fatalf("accepted state re-serializes differently:\n got %x\nwant %x", again, blob)
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
				// Go on in a decoder bound over copies of d's state.
				c := &Decoder{}
				d.plan.Bind(c, d.k, slices.Clone(d.w), slices.Clone(d.pkts))
				if !bytes.Equal(c.AppendState(nil), d.AppendState(nil)) {
					t.Fatal("a copy serializes differently from its original")
				}
				d = c
			}
		}
		// What the decoder became is again a state a decoder accepts.
		final := d.AppendState(nil)
		back := tg.s.decoder(t)
		if err := back.RestoreState(final); err != nil {
			t.Fatalf("a state the decoder reached was refused: %v", err)
		}
		d.Path()
		for h := 1; h <= d.k; h++ {
			d.CandidateCount(h)
		}
	})
}
