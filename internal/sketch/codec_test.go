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

func TestCodecRejectsCorrupt(t *testing.T) {
	kll, _ := NewKLL(32, hash.NewRNG(1))
	kll.Add(3)
	ss, _ := NewSpaceSaving(4)
	ss.Add(9)
	for name, c := range map[string]struct {
		state   []byte
		restore func([]byte) error
	}{
		"kll": {kll.AppendState(nil), func(b []byte) error { _, err := RestoreKLL(b); return err }},
		"ss":  {ss.AppendState(nil), func(b []byte) error { _, err := RestoreSpaceSaving(b); return err }},
	} {
		state := c.state
		// Truncations at every prefix must error, never panic.
		for cut := 0; cut < len(state); cut++ {
			if c.restore(state[:cut]) == nil {
				t.Fatalf("%s: truncation at %d/%d accepted", name, cut, len(state))
			}
		}
		// Trailing garbage is an error too.
		if c.restore(append(append([]byte(nil), state...), 0xEE)) == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
		// So is a varint AppendState could not have written: byte 1 (k, m —
		// both below 128) re-spelled in two bytes, same value.
		err := c.restore(slices.Concat(state[:1], []byte{state[1] | 0x80, 0x00}, state[2:]))
		if err == nil || !strings.Contains(err.Error(), "at byte 1 is not minimally encoded") {
			t.Fatalf("%s: non-minimal varint: got %v, want an error naming byte 1", name, err)
		}
	}
}
