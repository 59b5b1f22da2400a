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

// TestDecoderStateHashes pins AppendState after every packet of fixed
// streams to what the per-slice decoder before the plan/state split
// produced (hashes taken on that tree, except hashed-8bit's, pinned when
// its stream lost the power-of-two act-vector variant): the hand-off
// format is a wire format between builds, and a flow moves mid-decode, so
// every intermediate state — stored and dead packets, narrowed candidate
// sets in universe order, pending hop indices — must serialize to the same
// bytes, not only the finished one. Each entry chains SHA-256 over the
// states of one stream, so one differing byte after any packet changes it.
func TestDecoderStateHashes(t *testing.T) {
	want := map[string]string{
		"hashed-1bit/k=1":         "0ad48d79024be6a4",
		"hashed-1bit/k=5":         "210c8ca47f00fc68",
		"hashed-1bit/k=25":        "22e5dcd595a1e50d",
		"hashed-1bit/k=59":        "52a51f84eb531899",
		"hashed-1bit/k=64":        "d04dbde1cb20de9d",
		"hashed-4bit/k=1":         "845c9de4437bbc80",
		"hashed-4bit/k=5":         "907f9d0678675951",
		"hashed-4bit/k=25":        "16c81cdc44aac720",
		"hashed-4bit/k=59":        "6f91497a4c874238",
		"hashed-4bit/k=64":        "8f57d8e5e081c362",
		"hashed-8bit/k=1":         "66a44a7e75e5771d",
		"hashed-8bit/k=5":         "e40318380fb0e1a4",
		"hashed-8bit/k=25":        "401d78843acb9a13",
		"hashed-8bit/k=59":        "46ed058060e9c7ce",
		"hashed-8bit/k=64":        "eb8180dcc2d85c9f",
		"hashed-2x4bit/k=1":       "25d9c59a5084cc7d",
		"hashed-2x4bit/k=5":       "2a66100e30069b90",
		"hashed-2x4bit/k=25":      "e464df13b47661ab",
		"hashed-2x4bit/k=59":      "9cdc717217fc05f0",
		"hashed-2x4bit/k=64":      "56099c8735f6fb5c",
		"raw-fragmented/k=1":      "e0b3b07c663bbd86",
		"raw-fragmented/k=5":      "9a9950d01e091f80",
		"raw-fragmented/k=25":     "ac1be172d3917485",
		"raw-fragmented/k=59":     "4cacbb79bcdb9935",
		"raw-fragmented/k=64":     "0424ebd0f5e27ac1",
		"raw-xor-multilayer/k=1":  "b84b1cb828a0975e",
		"raw-xor-multilayer/k=5":  "4e2927336b1890e9",
		"raw-xor-multilayer/k=25": "58e6634d8ad8f77c",
		"raw-xor-multilayer/k=59": "643919ccfd6e2163",
		"raw-xor-multilayer/k=64": "d300cba3bb0b2a9b",
	}
	for _, c := range stateCases {
		for _, k := range stateKs {
			name := fmt.Sprintf("%s/k=%d", c.name, k)
			s := newStateStream(t, c, k)
			d := s.decoder(t)
			var chain [sha256.Size]byte
			var blob []byte
			doneAt := 0
			for i, id := range s.ids {
				if d.Observe(id, s.digs[i]) && doneAt == 0 {
					doneAt = i + 1
				}
				blob = d.AppendState(append(blob[:0], chain[:]...))
				chain = sha256.Sum256(blob)
			}
			got := fmt.Sprintf("%x", chain[:8])
			if *printStateHashes {
				fmt.Printf("\t\t%-26s %q, // done at %d of %d, %d inconsistent, final blob %d B\n",
					`"`+name+`":`, got, doneAt, len(s.ids), d.Inconsistent(), len(blob)-len(chain))
				continue
			}
			if got != want[name] {
				t.Errorf("%s: states chain to %s, want %s", name, got, want[name])
			}
		}
	}
}
