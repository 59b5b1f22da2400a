package coding

import (
	"math"
	"testing"

	"repro/internal/analysis"
)

func TestLog2Star(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0.5, 0}, {1, 0}, {2, 1}, {4, 2}, {5, 3}, {15, 3}, {16, 3},
		{256, 4}, {65536, 4}, {65537, 5},
	}
	for _, c := range cases {
		if got := Log2Star(c.x); got != c.want {
			t.Fatalf("Log2Star(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestIterExpE(t *testing.T) {
	if IterExpE(0) != 1 {
		t.Fatal("e↑↑0 must be 1")
	}
	if math.Abs(IterExpE(1)-math.E) > 1e-12 {
		t.Fatal("e↑↑1 must be e")
	}
	if math.Abs(IterExpE(2)-math.Exp(math.E)) > 1e-9 {
		t.Fatal("e↑↑2 must be e^e")
	}
	if !math.IsInf(IterExpE(5), 1) {
		t.Fatal("e↑↑5 must saturate to +Inf in float64")
	}
}

func TestMultiLayerLayerCount(t *testing.T) {
	// Paper: L = 1 if d <= 15 = ⌊e^e⌋, L = 2 for 16 <= d <= e^e^e.
	for _, d := range []int{2, 5, 10, 15} {
		if got := MultiLayer(d, true).Layers(); got != 1 {
			t.Fatalf("d=%d: L=%d, want 1", d, got)
		}
	}
	for _, d := range []int{16, 25, 59, 1000, 1000000} {
		if got := MultiLayer(d, true).Layers(); got != 2 {
			t.Fatalf("d=%d: L=%d, want 2", d, got)
		}
	}
}

func TestMultiLayerProbs(t *testing.T) {
	l := MultiLayer(25, true)
	if math.Abs(l.Probs[0]-1.0/25) > 1e-12 {
		t.Fatalf("p1 = %v, want 1/d", l.Probs[0])
	}
	if math.Abs(l.Probs[1]-math.E/25) > 1e-12 {
		t.Fatalf("p2 = %v, want e/d", l.Probs[1])
	}
}

func TestMultiLayerTau(t *testing.T) {
	// Revised tau (A.3) must exceed Algorithm 1's tau: more Baseline
	// packets, strictly fewer packets overall per the appendix.
	for _, d := range []int{5, 10, 25, 59} {
		orig := MultiLayer(d, false).Tau
		rev := MultiLayer(d, true).Tau
		if !(rev > orig) {
			t.Fatalf("d=%d: revised tau %v must exceed original %v", d, rev, orig)
		}
		if orig < 0 || rev > 1 {
			t.Fatalf("d=%d: tau out of range", d)
		}
	}
}

func TestHybridFootnote8(t *testing.T) {
	// d <= 15: log log d < 1, so the xor probability becomes 1/log d.
	l := Hybrid(10, 0.75)
	want := 1 / math.Log2(10)
	if math.Abs(l.Probs[0]-want) > 1e-12 {
		t.Fatalf("d=10: p = %v, want 1/log d = %v", l.Probs[0], want)
	}
	l = Hybrid(25, 0.75)
	want = math.Log2(math.Log2(25)) / math.Log2(25)
	if math.Abs(l.Probs[0]-want) > 1e-12 {
		t.Fatalf("d=25: p = %v, want loglogd/logd = %v", l.Probs[0], want)
	}
}

func TestLayeringValidate(t *testing.T) {
	if err := PureBaseline().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Layering{Tau: -0.1}).Validate(); err == nil {
		t.Fatal("negative tau must fail")
	}
	if err := (Layering{Tau: 0.5}).Validate(); err == nil {
		t.Fatal("tau<1 without XOR layers must fail")
	}
	if err := (Layering{Tau: 0.5, Probs: []float64{0}}).Validate(); err == nil {
		t.Fatal("zero layer probability must fail")
	}
	if err := MultiLayer(25, true).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PureXOR(1.0 / 25).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPartition(t *testing.T) {
	l := MultiLayer(25, true)
	// Layer frequencies must match: tau for 0, (1-tau)/L for each XOR layer.
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		u := float64(i) / n
		counts[l.Select(u)]++
	}
	if got := float64(counts[0]) / n; math.Abs(got-l.Tau) > 0.01 {
		t.Fatalf("baseline fraction %v, want %v", got, l.Tau)
	}
	per := (1 - l.Tau) / float64(l.Layers())
	for ell := 1; ell <= l.Layers(); ell++ {
		if got := float64(counts[ell]) / n; math.Abs(got-per) > 0.01 {
			t.Fatalf("layer %d fraction %v, want %v", ell, got, per)
		}
	}
}

func TestSelectPureBaseline(t *testing.T) {
	l := PureBaseline()
	for _, u := range []float64{0, 0.3, 0.999} {
		if l.Select(u) != 0 {
			t.Fatal("pure baseline must always select layer 0")
		}
	}
}

func TestSelectPureXOR(t *testing.T) {
	l := PureXOR(0.1)
	for _, u := range []float64{0, 0.3, 0.999} {
		if l.Select(u) != 1 {
			t.Fatal("pure XOR must always select layer 1")
		}
	}
}

func TestCouponCollectorMean(t *testing.T) {
	// k=25: k·H_25 ≈ 95.4 (the paper quotes a median of 89 for k=25) — the
	// yardstick the Baseline scheme is measured against (§4.2).
	got := analysis.CouponCollectorMean(25)
	if math.Abs(got-95.4) > 0.5 {
		t.Fatalf("25·H_25 = %v, want ≈95.4", got)
	}
	if analysis.CouponCollectorMean(1) != 1 {
		t.Fatal("k=1 needs exactly 1 packet in expectation")
	}
}
