package coding

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hash"
)

// appendImage appends a decoder's state as the hand-off moves it — its
// words, its candidate rows and its slab — as little-endian words.
func appendImage(dst []byte, d *Decoder) []byte {
	for _, part := range [][]uint64{d.w, d.rows, d.pkts} {
		for _, w := range part {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return dst
}

// bindCopy binds a decoder of d's plan over copies of words, rows (nil:
// none) and slab, as a hand-off's destination does.
func bindCopy(p *Plan, k int, words, rows, slab []uint64) *Decoder {
	d := &Decoder{}
	p.Bind(d, k, slices.Clone(words), slices.Clone(rows), slices.Clone(slab))
	return d
}

// sameState reports whether two decoders hold the same words and slab, and
// the same rows where both have them.
func sameState(a, b *Decoder) bool {
	return slices.Equal(a.w, b.w) && slices.Equal(a.pkts, b.pkts) &&
		(a.rows == nil || b.rows == nil || slices.Equal(a.rows, b.rows))
}

// TestDecoderStateRoundTrip is the hand-off contract: a decoder's state,
// checked and bound over copies at the destination, observes the rest of
// the stream exactly like the original — same solved hops, same counters,
// same image — so a flow moved mid-decode finishes decoding at its new
// home as if it never moved.
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
	p := orig.plan
	if err := p.Check(10, orig.w, orig.rows, orig.pkts); err != nil {
		t.Fatal(err)
	}
	restored := bindCopy(p, 10, orig.w, orig.rows, orig.pkts)
	if !bytes.Equal(appendImage(nil, orig), appendImage(nil, restored)) {
		t.Fatal("restored decoder's image differs")
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
	if !bytes.Equal(appendImage(nil, orig), appendImage(nil, restored)) {
		t.Fatal("final states diverge after identical streams")
	}
}

// TestDecoderStateRejectsCorrupt: Check refuses, naming what is wrong,
// every hand-built state no decoder of the plan could have reached, a
// path length out of range, a state for another path length, every cut
// of a real slab that is no whole number of packets, and a raw-mode state
// with a hop listed.
func TestDecoderStateRejectsCorrupt(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(5, true)}
	g := hash.NewGlobal(3)
	path := pathValues(5)
	universe := universeWith(path, 60)
	d, err := NewDecoder(cfg, g, 5, universe)
	if err != nil {
		t.Fatal(err)
	}
	p := d.plan
	// Well-formed states no decoder of this plan could have reached. Before
	// the hand-off checked them they restored, and a later packet indexed
	// outside the state and took the shard worker down with it.
	for _, c := range hostileStates(universe) {
		err := p.Check(5, c.words, c.rows, c.slab)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: refused with %q, want an error containing %q", c.name, err, c.wantErr)
		}
	}
	for _, k := range []int{0, MaxPathLen + 1} {
		if err := p.Check(k, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "out of [1,64]") {
			t.Errorf("k=%d: got %v, want a refusal of the path length", k, err)
		}
	}

	s := newStateStream(t, stateCases[0], 25)
	real := s.decoder(t)
	for i := 0; i < len(s.ids) && len(real.pkts) < 2*real.plan.stride; i++ {
		real.Observe(s.ids[i], s.digs[i])
	}
	rp, stride := real.plan, real.plan.stride
	if len(real.pkts) < 2*stride {
		t.Fatalf("the stream stored %d slab words, the case needs two packets", len(real.pkts))
	}
	if err := rp.Check(25, real.w, real.rows, real.pkts); err != nil {
		t.Fatalf("a real state refused: %v", err)
	}
	if err := rp.Check(26, real.w, real.rows, real.pkts); err == nil {
		t.Fatal("a k=25 state accepted as a k=26 one")
	}
	for cut := 1; cut < len(real.pkts); cut++ {
		if err := rp.Check(25, real.w, real.rows, real.pkts[:cut]); (err == nil) != (cut%stride == 0) {
			t.Fatalf("slab cut at %d of %d words: %v", cut, len(real.pkts), err)
		}
	}

	raw, err := NewDecoder(Config{Bits: 16, Mode: ModeRaw, ValueBits: 16, Layering: MultiLayer(5, true)}, g, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw.w[stListed] = 1
	if err := raw.plan.Check(5, raw.w, raw.rows, nil); err == nil || !strings.Contains(err.Error(), "raw-mode decoder state with hops listed") {
		t.Fatalf("raw-mode state with a hop listed: got %v", err)
	}
}

type hostileState struct {
	name              string
	words, rows, slab []uint64 // rows nil: none
	wantErr           string   // "" for a state that must be accepted
}

// image is the state's words, rows and slab, as the fuzz target reads
// them.
func (h hostileState) image() []byte {
	d := &Decoder{w: h.words, rows: h.rows, pkts: h.slab}
	return appendImage(nil, d)
}

// hostileStates builds states of a hashed, one-instance, k=5 decoder over
// universe by hand: one valid (a live packet waiting on hops 1 and 2, a
// dead one whose constraint left hop 3 two candidates, hop 5 decoded) and
// one way to break it per rule Check holds.
func hostileStates(u []uint64) []hostileState {
	// inconsistent, listed, known, then the five universe indices packed at
	// 6 bits (the universe has 60 values): hop 5's is 4, u[4].
	const idx5 = 4 << (4 * 6)
	words := []uint64{1, 0b10100, 0b10000, idx5}
	rows := []uint64{0, 0, 1<<1 | 1<<7, 0, 1 << 4}
	slab := []uint64{
		77, 0b00011, 0, 0xAB, // live, waiting on hops 1 and 2
		78, 0b00100, 1, 0xCD, // dead: its constraint left hop 3 two candidates
	}
	// A done state: every hop decoded as index h, its row that bit.
	done := []uint64{0, 0b11111, 0b11111, 0}
	for h := range 5 {
		done[3] |= uint64(h) << (6 * h)
	}
	doneRows := []uint64{1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4}
	// with returns a copy of the valid state's part with v at i.
	with := func(part []uint64, i int, v uint64) []uint64 {
		c := slices.Clone(part)
		c[i] = v
		return c
	}
	valid := func(name string) hostileState { return hostileState{name, words, rows, slab, ""} }
	bad := func(name, wantErr string, w, r, s []uint64) hostileState { return hostileState{name, w, r, s, wantErr} }
	return []hostileState{
		valid("valid"),
		{"done, rowless and slabless", done, nil, nil, ""},
		bad("inconsistent counter past MaxInt", "overflows", with(words, 0, math.MaxInt+1), rows, slab),
		bad("hop known beyond k", "known on hops 0x30", with(words, 2, 0b110000), rows, slab),
		bad("hop listed beyond k", "hops 0x54 listed beyond", with(words, 1, 0b1010100), rows, slab),
		bad("value for an undecoded block", "fragment 0 hop 2: value 7 for an undecoded block", with(words, 3, idx5|7<<6), rows, slab),
		bad("packed bits past the path's hops", "packed value word 0: bits 0x40000000 past the path's 5 values", with(words, 3, idx5|1<<30), rows, slab),
		bad("decoded hop not listed", "hop 5: decoded, and not listed", with(words, 1, 0b00100), rows, slab),
		bad("decoded index past the universe", "hop 5: decoded as universe index 60, past the universe's 60 values", with(words, 3, 60<<(4*6)), rows, slab),
		bad("decoded hop's row with its value and another", "hop 5: decoded as", words, with(rows, 4, 1<<4|1<<5), slab),
		bad("decoded hop's row another value's", "hop 5: decoded as", words, with(rows, 4, 1<<5), slab),
		bad("listed hop with an empty row", "hop 3: listed, and no candidate", words, with(rows, 2, 0), slab),
		bad("unlisted hop with a candidate", "hop 1: not listed, and 1 candidates", words, with(rows, 0, 1<<3), slab),
		bad("undecoded hop listed with one candidate", "hop 3: one candidate, and not decoded", words, with(rows, 2, 1<<1), slab),
		bad("candidate outside the universe", "hop 3: candidates beyond the universe's 60 values", words, with(rows, 2, 1<<1|1<<7|1<<60), slab),
		bad("undecoded state without rows", "without candidate rows", words, nil, slab),
		bad("rows of another path length", "4 candidate row words", words, rows[:4], slab),
		bad("done decoder with a slab", "a done decoder with a slab of 4 words", done, doneRows, slab[4:]),
		bad("rowless done decoder with a slab", "a done decoder with a slab of 4 words", done, nil, slab[4:]),
		bad("slab of a packet and a word", "slab of 9 words", words, rows, append(slices.Clone(slab), 0)),
		bad("packet fragment out of range", "packet 0 fragment 1 out of range", words, rows, with(slab, 2, 1<<1)),
		bad("packet mask bit beyond k", "packet 1 mask 0x24", words, rows, with(slab, 5, 0b100100)),
		bad("live packet waiting on one hop", "packet 0 is live and waits on 1 hops", words, rows, with(slab, 1, 0b00001)),
		bad("live packet waiting on a decoded hop", "packet 0 waits on decoded hops 0x10", words, rows, with(slab, 1, 0b10001)),
		bad("dead packet on two hops", "packet 1 is dead and waits on 2 hops", words, rows, with(slab, 5, 0b00110)),
		bad("words of another path length", "3 state words", words[:3], rows, slab),
	}
}

// TestRestoredHostileStateSurvivesObserve: the valid hand-built state is
// not only accepted — the decoder bound over it keeps decoding.
func TestRestoredHostileStateSurvivesObserve(t *testing.T) {
	cfg := Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(5, true)}
	g := hash.NewGlobal(3)
	path := pathValues(5)
	universe := universeWith(path, 60)
	enc, _ := NewEncoder(cfg, g)
	fresh, _ := NewDecoder(cfg, g, 5, universe)
	h := hostileStates(universe)[0]
	if err := fresh.plan.Check(5, h.words, h.rows, h.slab); err != nil {
		t.Fatal(err)
	}
	d := bindCopy(fresh.plan, 5, h.words, h.rows, h.slab)
	if again := appendImage(nil, d); !bytes.Equal(again, h.image()) {
		t.Fatalf("hand-built state binds to another image:\n got %x\nwant %x", again, h.image())
	}
	rng := hash.NewRNG(4)
	for i := 0; i < 2000 && !d.Done(); i++ {
		pkt := rng.Uint64()
		d.Observe(pkt, enc.EncodePath(pkt, path))
	}
	if !d.Done() {
		t.Fatal("restored decoder never finished")
	}
	if err := d.plan.Check(5, d.w, d.rows, d.pkts); err != nil {
		t.Fatalf("the state it finished in is refused: %v", err)
	}
}

// sharing binds a decoder over a copy of d's state words, no candidate
// rows and d's own slab, through Plan.Bind, as a Recording binds a
// holder's copy of a flow whose path is decoded.
func sharing(d *Decoder) *Decoder {
	c := &Decoder{}
	d.plan.Bind(c, d.k, slices.Clone(d.w), nil, d.pkts)
	return c
}

// TestFinishedCloneSharesSafely is the frozen rule of a done decoder: it
// keeps no stored packet, as none is left to cascade into, and Observe
// writes nothing but its inconsistency counter, so a decoder over a copy
// of its state words may share the rest, and both sides keep observing —
// consistent packets and contradicting ones, from two goroutines under
// -race — exactly as two deep copies (Clone) do.
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
		solved := slices.Clone(d.w[stListed:])
		controlA, controlB := d.Clone(), d.Clone()
		clone := sharing(d)
		// d sees the rest of the stream (every eleventh packet contradicts
		// the decoded path); the clone sees every other contradicting one.
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
			for i := 10; i < len(s.ids); i += 22 {
				clone.Observe(s.ids[i], s.digs[i])
			}
		}()
		wg.Wait()
		for i := half; i < len(s.ids); i++ {
			controlA.Observe(s.ids[i], s.digs[i])
		}
		for i := 10; i < len(s.ids); i += 22 {
			controlB.Observe(s.ids[i], s.digs[i])
		}
		if !sameState(d, controlA) {
			t.Errorf("%s: original diverged from its deep-copied control", c.name)
		}
		if !sameState(clone, controlB) {
			t.Errorf("%s: clone diverged from its deep-copied control", c.name)
		}
		if len(d.pkts) != 0 || len(clone.pkts) != 0 ||
			!slices.Equal(d.w[stListed:], solved) || !slices.Equal(clone.w[stListed:], solved) {
			t.Errorf("%s: a finished decoder kept a slab or its solved words were written", c.name)
		}
		if d.Inconsistent() == clone.Inconsistent() || clone.Inconsistent() == 0 {
			t.Errorf("%s: the two sides did not run apart: inconsistent %d/%d", c.name, d.Inconsistent(), clone.Inconsistent())
		}
	}
}

// TestDoneDecoderWithoutRows: a done decoder reads no candidate row again,
// so one bound over its state words without its rows, as a Recording binds
// a decoded flow, answers and observes the rest of the stream exactly as
// the decoder that kept them, and Clone gives the rows back: a decoded
// hop's row is the bit of its value. Check takes a done state without rows
// and refuses an undecoded one.
func TestDoneDecoderWithoutRows(t *testing.T) {
	for _, c := range stateCases {
		for _, k := range []int{5, 25} {
			s := newStateStream(t, c, k)
			d := s.decoder(t)
			i := 0
			for ; i < len(s.ids) && !d.Done(); i++ {
				d.Observe(s.ids[i], s.digs[i])
			}
			if !d.Done() {
				t.Fatalf("%s k=%d: not done after %d packets", c.name, k, i)
			}
			rowless := bindCopy(d.plan, k, d.w, nil, d.pkts)
			same := func(when string) {
				t.Helper()
				if !sameState(rowless, d) {
					t.Errorf("%s k=%d %s: the decoder without rows holds another state", c.name, k, when)
				}
				got, _ := rowless.AppendPath(nil)
				want, _ := d.AppendPath(nil)
				if !slices.Equal(got, want) || rowless.Inconsistent() != d.Inconsistent() {
					t.Errorf("%s k=%d %s: the decoder without rows answers differently", c.name, k, when)
				}
			}
			same("at decode")
			if err := d.plan.Check(k, d.w, nil, d.pkts); err != nil {
				t.Errorf("%s k=%d: a decoded state without rows refused: %v", c.name, k, err)
			}
			if fresh := s.decoder(t); d.plan.RowWords(k) > 0 {
				if err := d.plan.Check(k, fresh.w, nil, nil); err == nil {
					t.Errorf("%s k=%d: an undecoded state without rows accepted", c.name, k)
				}
			}
			clone := rowless.Clone()
			if !slices.Equal(clone.rows, d.rows) || !slices.Equal(clone.w, d.w) || len(clone.rows) != d.plan.RowWords(k) {
				t.Errorf("%s k=%d: Clone of the decoder without rows did not rebuild them", c.name, k)
			}
			for ; i < len(s.ids); i++ {
				d.Observe(s.ids[i], s.digs[i])
				rowless.Observe(s.ids[i], s.digs[i])
			}
			same("at the stream's end")
		}
	}
}
