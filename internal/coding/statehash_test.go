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
// them. The table was taken when the values went packed (universe indices
// or fragments at the plan's width), the observed counter went, and a done
// decoder dropped its slab; the tree before it, whose table held the
// per-slice decoder's evolution, decoded every stream at the same packet
// with the same inconsistency count, which -print-state-hashes lists. So
// the per-packet evolution it pins is still that one's: a flow moves
// mid-decode, and every intermediate state — stored and dead packets,
// narrowed candidate sets, solved blocks — matters, not only the finished
// one. Each entry chains SHA-256 over the
// images of one stream, so one differing word after any packet changes it.
func TestDecoderStateHashes(t *testing.T) {
	want := map[string]string{
		"hashed-1bit/k=1":         "cbf00667afd9a74f",
		"hashed-1bit/k=5":         "50fbba8e8c551a1c",
		"hashed-1bit/k=25":        "5e48dc8eabf1a44a",
		"hashed-1bit/k=59":        "bab0c062c645cf24",
		"hashed-1bit/k=64":        "3ae61ef47e822403",
		"hashed-4bit/k=1":         "68734a0c87b033c3",
		"hashed-4bit/k=5":         "7de3fe44dc944a20",
		"hashed-4bit/k=25":        "fbc50bb99457d487",
		"hashed-4bit/k=59":        "e0b32eb1f9ddbe3c",
		"hashed-4bit/k=64":        "75f3913564db0ac9",
		"hashed-8bit/k=1":         "cffb888103aca93f",
		"hashed-8bit/k=5":         "3d31fea9fe597c78",
		"hashed-8bit/k=25":        "a88c8f4e1e36e889",
		"hashed-8bit/k=59":        "8ef9a0c1c7f1c462",
		"hashed-8bit/k=64":        "f86074a46d12b372",
		"hashed-2x4bit/k=1":       "bf42d50d81082f59",
		"hashed-2x4bit/k=5":       "83316d47f170a78e",
		"hashed-2x4bit/k=25":      "2f56810f4e24701c",
		"hashed-2x4bit/k=59":      "31ab5e1cddbec135",
		"hashed-2x4bit/k=64":      "1f2d83a593b3c9c0",
		"raw-fragmented/k=1":      "09641a2eb671f828",
		"raw-fragmented/k=5":      "8e840be75cdaa726",
		"raw-fragmented/k=25":     "ee460f5ecb4eaa6b",
		"raw-fragmented/k=59":     "f3baf01d2ed3c092",
		"raw-fragmented/k=64":     "82bfb2f01e2e4471",
		"raw-xor-multilayer/k=1":  "b591e234c2923c3a",
		"raw-xor-multilayer/k=5":  "1eee02b3ceaa765e",
		"raw-xor-multilayer/k=25": "c7bbec34d3c8d6b7",
		"raw-xor-multilayer/k=59": "a4945a412fb8ecab",
		"raw-xor-multilayer/k=64": "506409d11f6f3773",
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
