package coding

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"

	"repro/internal/hash"
)

var printStateHashes = flag.Bool("print-state-hashes", false, "print TestDecoderStateHashes' table instead of checking it")

// stateStream is one fixed decode episode: a configuration, a shuffled
// universe (so "universe order" is not "value order"), and n packets of
// which every eleventh was encoded over a path that differs at one hop —
// the inconsistency counter and the filter-that-would-empty-a-set path
// are part of the state being pinned.
type stateStream struct {
	cfg      Config
	g        hash.Global
	k        int
	universe []uint64
	ids      []uint64
	digs     []Digest
}

type stateCase struct {
	name string
	cfg  func(k int) Config
}

var stateCases = []stateCase{
	{"hashed-1bit", func(k int) Config { return Config{Bits: 1, Mode: ModeHashed, Layering: MultiLayer(k, true)} }},
	{"hashed-4bit", func(k int) Config { return Config{Bits: 4, Mode: ModeHashed, Layering: Hybrid(k, 0.75)} }},
	{"hashed-8bit", func(k int) Config { return Config{Bits: 8, Mode: ModeHashed, Layering: MultiLayer(k, false)} }},
	// The testbench plan: core.DefaultPathConfig(4, 2, 5) whatever k is.
	{"hashed-2x4bit", func(int) Config {
		return Config{Bits: 4, Mode: ModeHashed, Instances: 2, Layering: MultiLayer(5, true)}
	}},
	{"raw-fragmented", func(k int) Config {
		return Config{Bits: 4, Mode: ModeRaw, ValueBits: 14, Layering: Hybrid(k, 0.75)}
	}},
	{"raw-xor-multilayer", func(k int) Config {
		return Config{Bits: 16, Mode: ModeRaw, ValueBits: 16, Layering: MultiLayer(k, true)}
	}},
}

var stateKs = []int{1, 5, 25, 59, 64}

func newStateStream(t testing.TB, c stateCase, k int) *stateStream {
	t.Helper()
	s := &stateStream{cfg: c.cfg(k), g: hash.NewGlobal(hash.Seed(0x57A7E).Derive(uint64(k))), k: k}
	path := pathValues(k)
	s.universe = universeWith(path, k+70)
	rng := hash.NewRNG(uint64(k)*131 + 7)
	for i := len(s.universe) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		s.universe[i], s.universe[j] = s.universe[j], s.universe[i]
	}
	moved := append([]uint64(nil), path...)
	moved[k/2] = s.universe[rng.Intn(len(s.universe))]
	enc, err := NewEncoder(s.cfg, s.g)
	if err != nil {
		t.Fatal(err)
	}
	n := 30*k + 64
	for i := 0; i < n; i++ {
		id := rng.Uint64()
		values := path
		if i%11 == 10 {
			values = moved
		}
		s.ids = append(s.ids, id)
		s.digs = append(s.digs, enc.EncodePath(id, values))
	}
	return s
}

func (s *stateStream) decoder(t testing.TB) *Decoder {
	t.Helper()
	d, err := NewDecoder(s.cfg, s.g, s.k, s.universe)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDecoderStateHashes pins a decoder's image (words, candidate rows,
// slab) after every packet of fixed streams, and Check accepts each of
// them. The table was taken on the tree whose table of the serialized
// states before them (what the per-slice decoder before the plan/state
// split produced, hashed-8bit's since its stream lost the power-of-two
// act-vector variant) still held, so the per-packet evolution it pins is
// that one's: a flow moves mid-decode, and every intermediate state —
// stored and dead packets, narrowed candidate sets, solved blocks —
// matters, not only the finished one. Each entry chains SHA-256 over the
// images of one stream, so one differing word after any packet changes it.
func TestDecoderStateHashes(t *testing.T) {
	want := map[string]string{
		"hashed-1bit/k=1":         "d3de1abbb9c5e816",
		"hashed-1bit/k=5":         "6c45403eac934af6",
		"hashed-1bit/k=25":        "654a728a71a509de",
		"hashed-1bit/k=59":        "aef81b6d76526f32",
		"hashed-1bit/k=64":        "a0fd85729cba9e2b",
		"hashed-4bit/k=1":         "2d639a7791a0ef24",
		"hashed-4bit/k=5":         "c788fa5e63719a8b",
		"hashed-4bit/k=25":        "fb6a94182ca198db",
		"hashed-4bit/k=59":        "3bcae27ff57c15ea",
		"hashed-4bit/k=64":        "88890c0266cff298",
		"hashed-8bit/k=1":         "f610c0df912e2bda",
		"hashed-8bit/k=5":         "733e7b9c39881e32",
		"hashed-8bit/k=25":        "dff0a78ff03e6ea1",
		"hashed-8bit/k=59":        "7447965db4b12d74",
		"hashed-8bit/k=64":        "c121c0d540bc82b7",
		"hashed-2x4bit/k=1":       "c47fa3bdbc2a4996",
		"hashed-2x4bit/k=5":       "87c9a86442d35d20",
		"hashed-2x4bit/k=25":      "8a59f5b9367d2c7d",
		"hashed-2x4bit/k=59":      "bb3f681624740ee9",
		"hashed-2x4bit/k=64":      "d0cd03fbad68f210",
		"raw-fragmented/k=1":      "a97ff073d8cc60ea",
		"raw-fragmented/k=5":      "1604d06f66166104",
		"raw-fragmented/k=25":     "ad10b88784ed484e",
		"raw-fragmented/k=59":     "21aa1aedb38a6f01",
		"raw-fragmented/k=64":     "5fd431a64aa86184",
		"raw-xor-multilayer/k=1":  "b5973061371a600e",
		"raw-xor-multilayer/k=5":  "f6adff97c9c29231",
		"raw-xor-multilayer/k=25": "79bfd37783c45715",
		"raw-xor-multilayer/k=59": "6dc5f4d5c8a28109",
		"raw-xor-multilayer/k=64": "2d102929c9e9b79f",
	}
	for _, c := range stateCases {
		for _, k := range stateKs {
			name := fmt.Sprintf("%s/k=%d", c.name, k)
			s := newStateStream(t, c, k)
			d := s.decoder(t)
			var chain [sha256.Size]byte
			var buf []byte
			doneAt := 0
			for i, id := range s.ids {
				if d.Observe(id, s.digs[i]) && doneAt == 0 {
					doneAt = i + 1
				}
				if err := d.plan.Check(k, d.w, d.rows, d.pkts); err != nil {
					t.Fatalf("%s: the state after packet %d is refused: %v", name, i, err)
				}
				buf = appendImage(append(buf[:0], chain[:]...), d)
				chain = sha256.Sum256(buf)
			}
			got := fmt.Sprintf("%x", chain[:8])
			if *printStateHashes {
				fmt.Printf("\t\t%-26s %q, // done at %d of %d, %d inconsistent, final image %d B\n",
					`"`+name+`":`, got, doneAt, len(s.ids), d.Inconsistent(), len(buf)-len(chain))
				continue
			}
			if got != want[name] {
				t.Errorf("%s: images chain to %s, want %s", name, got, want[name])
			}
		}
	}
}
