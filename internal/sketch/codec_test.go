package sketch

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/hash"
)

// codecEquivalent drives two sketches identically after a state
// hand-off and demands identical answers — the restored sketch must
// carry the original's exact RNG position, not just its data.
func TestKLLCodecRoundTrip(t *testing.T) {
	orig, err := NewKLL(64, hash.NewRNG(0xAB))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		orig.Add(float64(i%97) + 0.5)
	}
	state := orig.AppendState(nil)
	restored, err := RestoreKLL(state)
	if err != nil {
		t.Fatal(err)
	}
	// Same quantiles now...
	for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a, b := orig.Quantile(phi), restored.Quantile(phi); a != b {
			t.Fatalf("phi=%v: %v vs %v after restore", phi, a, b)
		}
	}
	// ...and same quantiles after both take the same future (the RNG
	// position shipped, so compaction coin flips stay aligned).
	for i := 0; i < 2000; i++ {
		v := float64((i * 31) % 113)
		orig.Add(v)
		restored.Add(v)
	}
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		if a, b := orig.Quantile(phi), restored.Quantile(phi); a != b {
			t.Fatalf("post-restore divergence at phi=%v: %v vs %v", phi, a, b)
		}
	}
	// And the re-serialized state is byte-identical.
	if !bytes.Equal(orig.AppendState(nil), restored.AppendState(nil)) {
		t.Fatal("restored KLL re-serializes differently")
	}
}

func TestSpaceSavingCodecRoundTrip(t *testing.T) {
	orig, err := NewSpaceSaving(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		orig.Add(uint64(i % 23))
	}
	restored, err := RestoreSpaceSaving(orig.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Count() != restored.Count() {
		t.Fatalf("count %d vs %d", orig.Count(), restored.Count())
	}
	for v := uint64(0); v < 23; v++ {
		a, aok := orig.cnt[v]
		b, bok := restored.cnt[v]
		if a != b || aok != bok {
			t.Fatalf("estimate(%d): (%d,%v) vs (%d,%v)", v, a, aok, b, bok)
		}
	}
	if !bytes.Equal(orig.AppendState(nil), restored.AppendState(nil)) {
		t.Fatal("restored SpaceSaving re-serializes differently")
	}
}

func TestSlidingKLLCodecRoundTrip(t *testing.T) {
	orig, err := NewSlidingKLL(4, 100, 32, hash.NewRNG(0xCD))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 350; i++ {
		if err := orig.Add(float64(i % 41)); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreSlidingKLL(orig.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if orig.WindowCount() != restored.WindowCount() {
		t.Fatalf("window count %d vs %d", orig.WindowCount(), restored.WindowCount())
	}
	for i := 0; i < 500; i++ {
		v := float64((i * 7) % 59)
		if err := orig.Add(v); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		a, aerr := orig.Quantile(phi)
		b, berr := restored.Quantile(phi)
		if (aerr == nil) != (berr == nil) || (aerr == nil && a != b) {
			t.Fatalf("post-restore divergence at phi=%v: %v/%v vs %v/%v", phi, a, aerr, b, berr)
		}
	}
	if !bytes.Equal(orig.AppendState(nil), restored.AppendState(nil)) {
		t.Fatal("restored SlidingKLL re-serializes differently")
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	kll, _ := NewKLL(32, hash.NewRNG(1))
	kll.Add(3)
	ss, _ := NewSpaceSaving(4)
	ss.Add(9)
	sl, _ := NewSlidingKLL(2, 10, 16, hash.NewRNG(2))
	sl.Add(1)
	for name, state := range map[string][]byte{
		"kll":     kll.AppendState(nil),
		"ss":      ss.AppendState(nil),
		"sliding": sl.AppendState(nil),
	} {
		// Truncations at every prefix must error, never panic.
		for cut := 0; cut < len(state); cut++ {
			var err error
			switch name {
			case "kll":
				_, err = RestoreKLL(state[:cut])
			case "ss":
				_, err = RestoreSpaceSaving(state[:cut])
			case "sliding":
				_, err = RestoreSlidingKLL(state[:cut])
			}
			if err == nil {
				t.Fatalf("%s: truncation at %d/%d accepted", name, cut, len(state))
			}
		}
		// Trailing garbage is an error too.
		grown := append(append([]byte(nil), state...), 0xEE)
		var err error
		switch name {
		case "kll":
			_, err = RestoreKLL(grown)
		case "ss":
			_, err = RestoreSpaceSaving(grown)
		case "sliding":
			_, err = RestoreSlidingKLL(grown)
		}
		if err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
		// So is a varint AppendState could not have written: byte 1 (k, m,
		// buckets — all below 128) re-spelled in two bytes, same value.
		long := slices.Concat(state[:1], []byte{state[1] | 0x80, 0x00}, state[2:])
		switch name {
		case "kll":
			_, err = RestoreKLL(long)
		case "ss":
			_, err = RestoreSpaceSaving(long)
		case "sliding":
			_, err = RestoreSlidingKLL(long)
		}
		if err == nil || !strings.Contains(err.Error(), "at byte 1 is not minimally encoded") {
			t.Fatalf("%s: non-minimal varint: got %v, want an error naming byte 1", name, err)
		}
	}
}
