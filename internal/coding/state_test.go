package coding

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hash"
)

// TestDecoderStateRoundTrip is the hand-off contract: a decoder's
// serialized state restored into a fresh decoder must observe the rest
// of the stream exactly like the original — same solved hops, same
// counters, same re-serialization — so a flow moved mid-decode finishes
// decoding at its new home as if it never moved.
func TestDecoderStateRoundTrip(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(10, true)}
	g := hash.NewGlobal(77)
	path := pathValues(10)
	universe := universeWith(path, 120)

	enc, err := NewEncoder(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := NewDecoder(cfg, g, 10, universe)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewRNG(9)
	// Observe enough to be mid-decode (partial state), not done.
	for i := 0; i < 12; i++ {
		pkt := rng.Uint64()
		orig.Observe(pkt, enc.EncodePath(pkt, path))
	}
	if orig.Done() {
		t.Skip("decode finished before a partial state could be captured")
	}

	state := orig.AppendState(nil)
	if k, err := StateK(state); err != nil || k != 10 {
		t.Fatalf("StateK = %d, %v; want 10", k, err)
	}
	restored, err := NewDecoder(cfg, g, 10, universe)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if orig.w[stObserved] != restored.w[stObserved] || orig.Inconsistent() != restored.Inconsistent() {
		t.Fatalf("counters diverge after restore: %d/%d vs %d/%d",
			orig.w[stObserved], orig.Inconsistent(), restored.w[stObserved], restored.Inconsistent())
	}
	if !bytes.Equal(state, restored.AppendState(nil)) {
		t.Fatal("restored decoder re-serializes differently")
	}

	// Drive both with the identical remaining stream.
	for i := 0; i < 5000 && !orig.Done(); i++ {
		pkt := rng.Uint64()
		d := enc.EncodePath(pkt, path)
		orig.Observe(pkt, d)
		restored.Observe(pkt, d)
	}
	if !orig.Done() || !restored.Done() {
		t.Fatalf("decode incomplete: orig=%v restored=%v", orig.Done(), restored.Done())
	}
	a, aKnown := orig.Path()
	b, bKnown := restored.Path()
	for i := range a {
		if a[i] != b[i] || aKnown[i] != bKnown[i] {
			t.Fatalf("hop %d: %d (known=%v) vs %d (known=%v)", i+1, a[i], aKnown[i], b[i], bKnown[i])
		}
	}
	if !bytes.Equal(orig.AppendState(nil), restored.AppendState(nil)) {
		t.Fatal("final states diverge after identical streams")
	}
}

// TestDecoderStateRejectsCorrupt: truncations and trailing bytes must
// error, never panic, and a state for the wrong k must be refused.
func TestDecoderStateRejectsCorrupt(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(5, true)}
	g := hash.NewGlobal(3)
	path := pathValues(5)
	universe := universeWith(path, 60)
	enc, _ := NewEncoder(cfg, g)
	d, err := NewDecoder(cfg, g, 5, universe)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewRNG(4)
	for i := 0; i < 6; i++ {
		pkt := rng.Uint64()
		d.Observe(pkt, enc.EncodePath(pkt, path))
	}
	state := d.AppendState(nil)
	for cut := 0; cut < len(state); cut++ {
		fresh, _ := NewDecoder(cfg, g, 5, universe)
		if err := fresh.RestoreState(state[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(state))
		}
	}
	fresh, _ := NewDecoder(cfg, g, 5, universe)
	if err := fresh.RestoreState(append(append([]byte(nil), state...), 7)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	wrongK, _ := NewDecoder(cfg, g, 6, universeWith(pathValues(6), 60))
	if err := wrongK.RestoreState(state); err == nil {
		t.Fatal("k=5 state restored into a k=6 decoder")
	}

	// Well-formed blobs no decoder of this plan could have written. Before
	// RestoreState checked them they restored, and a later packet indexed
	// outside the state (the first case: index out of range in stripHop as
	// soon as hop 2 decoded) and took the shard worker down with it.
	for _, c := range hostileStates(universe) {
		fresh, _ := NewDecoder(cfg, g, 5, universe)
		err := fresh.RestoreState(c.blob)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: refused with %q, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}

// uvarints spells a decoder state as the numbers AppendState writes: the
// blob is uvarints throughout, its flag bytes 0 and 1 among them.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

type hostileState struct {
	name    string
	blob    []byte
	wantErr string // "" for a blob that must restore
}

// hostileStates builds states of a hashed, one-instance, k=5 decoder over
// universe by hand: one valid (a live packet waiting on hops 1 and 2, hop
// 3 narrowed to two candidates, hop 5 decoded) and the ways to break it.
func hostileStates(universe []uint64) []hostileState {
	u := universe
	head := []uint64{decoderStateVersion, 5, 1, uint64(len(u))}
	counters := []uint64{9, 1, 1} // observed, inconsistent, decodedHops
	blocks := []uint64{0, 0, 0, 0, 0, 0, 0, 0, 1, u[4]}
	cands := []uint64{1, 0, 0, 1, 2, u[1], u[7], 0, 1, 1, u[4]}
	pkts := []uint64{2,
		77, 0, 0b00011, 0, 1, 0xAB, // live, waiting on hops 1 and 2
		78, 0, 0b10100, 1, 1, 0xCD} // dead: its constraint left hop 3 two candidates
	pending := []uint64{1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0}
	state := func(parts ...[]uint64) []byte { return uvarints(slices.Concat(parts...)...) }
	return []hostileState{
		{"valid", state(head, counters, blocks, cands, pkts, pending), ""},
		{"three residual words into a one-word decoder",
			state(head, counters, blocks, cands, []uint64{1, 77, 0, 0b00011, 0, 3, 1, 2, 3}, []uint64{1, 1, 0, 1, 1, 0, 0, 0, 0}),
			"packet 0 carries 3 residual words"},
		{"no residual words",
			state(head, counters, blocks, cands, []uint64{1, 77, 0, 0b00011, 0, 0}, []uint64{1, 1, 0, 1, 1, 0, 0, 0, 0}),
			"packet 0 carries 0 residual words"},
		{"mask bit beyond k",
			state(head, counters, blocks, cands, []uint64{2, 77, 0, 0b00011, 0, 1, 0xAB, 78, 0, 0b100100, 1, 1, 0xCD}, pending),
			"packet 1 mask 0x24"},
		{"pending index entry without the hop's bit",
			state(head, counters, blocks, cands, pkts, []uint64{1, 1, 0, 1, 1, 0, 1, 2, 0, 1, 0, 0}),
			"hop 3: pending index lists packet 0"},
		{"pending index out of range",
			state(head, counters, blocks, cands, pkts, []uint64{1, 1, 0, 1, 1, 0, 1, 1, 2, 0, 0}),
			"hop 3: pending index lists packet 2"},
		{"pending index of a decoded hop",
			state(head, counters, blocks, cands, pkts, []uint64{1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1}),
			"hop 5: pending index lists packet 1"},
		{"pending index omits a waiting packet",
			state(head, counters, blocks, cands, pkts, []uint64{1, 1, 0, 0, 1, 1, 1, 0, 0}),
			"hop 2: pending index omits packet 0"},
		{"empty pending index",
			state(head, counters, blocks, cands, pkts, []uint64{1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0}),
			"hop 4: empty pending index"},
		{"candidates out of universe order",
			state(head, counters, blocks, []uint64{1, 0, 0, 1, 2, u[7], u[1], 0, 1, 1, u[4]}, pkts, pending),
			"hop 3: candidate"},
		{"candidate listed twice",
			state(head, counters, blocks, []uint64{1, 0, 0, 1, 2, u[1], u[1], 0, 1, 1, u[4]}, pkts, pending),
			"hop 3: candidate"},
		{"candidate outside the universe",
			state(head, counters, blocks, []uint64{1, 0, 0, 1, 2, u[1], 424242, 0, 1, 1, u[4]}, pkts, pending),
			"hop 3: candidate 424242"},
		{"empty candidate list",
			state(head, counters, blocks, []uint64{1, 0, 0, 1, 0, 0, 1, 1, u[4]}, pkts, pending),
			"hop 3: empty candidate list"},
		{"decodedHops above what is known",
			state(head, []uint64{9, 1, 2}, blocks, cands, pkts, pending),
			"claims 2 decoded hops"},
		{"decodedHops below what is known",
			state(head, []uint64{9, 1, 0}, blocks, cands, pkts, pending),
			"claims 0 decoded hops"},
		{"raw-mode state into a hashed decoder",
			state(head, counters, blocks, []uint64{0}, pkts, pending),
			"mode does not match"},
		{"flag byte 2",
			state(head, counters, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 2, u[4]}, cands, pkts, pending),
			"neither 0 nor 1"},
		{"over-long varint",
			slices.Concat(uvarints(head...), []byte{0x89, 0x00}, uvarints(slices.Concat([]uint64{1, 1}, blocks, cands, pkts, pending)...)),
			"not minimally encoded"},
	}
}

// TestRestoredHostileStateSurvivesObserve: the valid hand-built state is
// not only accepted — the decoder it makes keeps decoding.
func TestRestoredHostileStateSurvivesObserve(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(5, true)}
	g := hash.NewGlobal(3)
	path := pathValues(5)
	universe := universeWith(path, 60)
	enc, _ := NewEncoder(cfg, g)
	d, _ := NewDecoder(cfg, g, 5, universe)
	blob := hostileStates(universe)[0].blob
	if err := d.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if again := d.AppendState(nil); !bytes.Equal(again, blob) {
		t.Fatalf("hand-built state re-serializes differently:\n got %x\nwant %x", again, blob)
	}
	rng := hash.NewRNG(4)
	for i := 0; i < 2000 && !d.Done(); i++ {
		pkt := rng.Uint64()
		d.Observe(pkt, enc.EncodePath(pkt, path))
	}
	if !d.Done() {
		t.Fatal("restored decoder never finished")
	}
}

// sharing binds a decoder over a copy of d's state words and d's own
// slab, through Plan.Bind, as a Recording binds a holder's copy of a flow
// whose path is decoded (flowState.unshare copies the words and shares the
// slab of a finished decoder).
func sharing(d *Decoder) *Decoder {
	c := &Decoder{}
	d.plan.Bind(c, d.k, slices.Clone(d.w), d.pkts)
	return c
}

// TestFinishedCloneSharesSafely is the frozen-share rule: once a decoder is
// done, Observe writes nothing but its two counters, so a decoder over a
// copy of its state words may share its slab, and both sides keep
// observing — consistent packets and contradicting ones, from two
// goroutines under -race — exactly as two deep copies (rebuilt from the
// serialized state) do. That a Recording copies the slab of a decoder not
// yet done is core's TestUnshareSharesOnlyAFinishedSlab.
func TestFinishedCloneSharesSafely(t *testing.T) {
	for _, c := range stateCases {
		s := newStateStream(t, c, 5)
		d := s.decoder(t)
		half := len(s.ids) / 2
		for i := 0; i < half; i++ {
			d.Observe(s.ids[i], s.digs[i])
		}
		if !d.Done() {
			t.Fatalf("%s: not done after %d packets", c.name, half)
		}
		slab, solved := slices.Clone(d.pkts), slices.Clone(d.w[stListed:])
		deepCopy := func() *Decoder {
			c := s.decoder(t)
			if err := c.RestoreState(d.AppendState(nil)); err != nil {
				t.Fatal(err)
			}
			return c
		}
		controlA, controlB := deepCopy(), deepCopy()
		clone := sharing(d)
		// d sees the rest of the stream (every eleventh packet contradicts
		// the decoded path); the clone sees only the contradicting ones.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := half; i < len(s.ids); i++ {
				d.Observe(s.ids[i], s.digs[i])
			}
		}()
		go func() {
			defer wg.Done()
			for i := 10; i < len(s.ids); i += 11 {
				clone.Observe(s.ids[i], s.digs[i])
			}
		}()
		wg.Wait()
		for i := half; i < len(s.ids); i++ {
			controlA.Observe(s.ids[i], s.digs[i])
		}
		for i := 10; i < len(s.ids); i += 11 {
			controlB.Observe(s.ids[i], s.digs[i])
		}
		if !bytes.Equal(d.AppendState(nil), controlA.AppendState(nil)) {
			t.Errorf("%s: original diverged from its deep-copied control", c.name)
		}
		if !bytes.Equal(clone.AppendState(nil), controlB.AppendState(nil)) {
			t.Errorf("%s: clone diverged from its deep-copied control", c.name)
		}
		if !slices.Equal(d.pkts, slab) || !slices.Equal(clone.pkts, slab) ||
			!slices.Equal(d.w[stListed:], solved) || !slices.Equal(clone.w[stListed:], solved) {
			t.Errorf("%s: a finished decoder's slab or solved words were written", c.name)
		}
		if d.w[stObserved] == clone.w[stObserved] || d.Inconsistent() == 0 || clone.Inconsistent() == 0 {
			t.Errorf("%s: the two sides did not run apart: observed %d/%d, inconsistent %d/%d",
				c.name, d.w[stObserved], clone.w[stObserved], d.Inconsistent(), clone.Inconsistent())
		}
	}
}
