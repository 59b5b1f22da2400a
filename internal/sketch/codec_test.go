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

func TestCodecRejectsCorrupt(t *testing.T) {
	kll, _ := NewKLL(32, hash.NewRNG(1))
	kll.Add(3)
	state := kll.AppendState(nil)
	restore := func(b []byte) error { _, err := RestoreKLL(b); return err }
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(state); cut++ {
		if restore(state[:cut]) == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(state))
		}
	}
	// Trailing garbage is an error too.
	if restore(append(append([]byte(nil), state...), 0xEE)) == nil {
		t.Fatal("trailing byte accepted")
	}
	// So is a varint AppendState could not have written: byte 1 (k, below
	// 128) re-spelled in two bytes, same value.
	err := restore(slices.Concat(state[:1], []byte{state[1] | 0x80, 0x00}, state[2:]))
	if err == nil || !strings.Contains(err.Error(), "at byte 1 is not minimally encoded") {
		t.Fatalf("non-minimal varint: got %v, want an error naming byte 1", err)
	}
}
