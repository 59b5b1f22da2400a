package hash

import (
	"math"
	"testing"
)

func TestReservoirUniformWinner(t *testing.T) {
	// The heart of PINT's dynamic aggregation (§4.1): over many packets the
	// surviving hop must be uniform over the k hops.
	g := NewGlobal(1)
	for _, k := range []int{1, 2, 5, 10, 25} {
		counts := make([]int, k+1)
		const n = 100000
		for p := uint64(0); p < n; p++ {
			counts[g.ReservoirWinner(p, k)]++
		}
		want := float64(n) / float64(k)
		for hop := 1; hop <= k; hop++ {
			if math.Abs(float64(counts[hop])-want) > want*0.07 {
				t.Fatalf("k=%d hop=%d: %d wins, want %.0f +/- 7%%",
					k, hop, counts[hop], want)
			}
		}
	}
}

func TestReservoirFirstHopAlwaysWrites(t *testing.T) {
	g := NewGlobal(2)
	for p := uint64(0); p < 1000; p++ {
		if !g.ReservoirWrites(p, 1) {
			t.Fatal("hop 1 must always write (probability 1/1)")
		}
	}
}

func TestReservoirWinnerMatchesSequentialSimulation(t *testing.T) {
	// The Recording Module's offline computation must agree with what the
	// switches actually did on the wire — the central coordination claim.
	// k runs past 64, where ReservoirWrites leaves its threshold table.
	g := NewGlobal(3)
	for p := uint64(0); p < 20000; p++ {
		k := 1 + int(p%70)
		cur := 0
		for i := 1; i <= k; i++ { // the on-path sequential overwrites
			if g.ReservoirWrites(p, i) {
				cur = i
			}
		}
		if got := g.ReservoirWinner(p, k); got != cur {
			t.Fatalf("pkt=%d k=%d: winner %d, wire says %d", p, k, got, cur)
		}
	}
}

func TestActProbability(t *testing.T) {
	g := NewGlobal(4)
	for _, p := range []float64{1.0 / 25, 0.2, 0.04} {
		hits := 0
		const n = 200000
		for pkt := uint64(0); pkt < n; pkt++ {
			if g.Act(pkt, 7, p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > math.Max(0.004, p*0.1) {
			t.Fatalf("Act p=%v: empirical %v", p, got)
		}
	}
}

func TestActIndependentAcrossHops(t *testing.T) {
	// Decisions at different hops must be (pairwise) independent: the XOR
	// layer analysis assumes Bin(k, p) acting hops.
	g := NewGlobal(5)
	const p = 0.5
	both, n := 0, 100000
	for pkt := uint64(0); pkt < uint64(n); pkt++ {
		a := g.Act(pkt, 1, p)
		b := g.Act(pkt, 2, p)
		if a && b {
			both++
		}
	}
	got := float64(both) / float64(n)
	if math.Abs(got-p*p) > 0.01 {
		t.Fatalf("joint probability %v, want %v", got, p*p)
	}
}

func TestQueryPointStable(t *testing.T) {
	g := NewGlobal(6)
	g2 := NewGlobal(6)
	for pkt := uint64(0); pkt < 1000; pkt++ {
		if g.QueryPoint(pkt) != g2.QueryPoint(pkt) {
			t.Fatal("same master seed must give same query selection")
		}
	}
}

func TestValueDigestWidth(t *testing.T) {
	g := NewGlobal(7)
	for _, b := range []int{1, 4, 8, 16} {
		for v := uint64(0); v < 100; v++ {
			d := g.ValueDigest(v, 12345, b)
			if d >= 1<<uint(b) {
				t.Fatalf("b=%d: digest %d out of range", b, d)
			}
		}
	}
}

func TestValueDigestCollisionRate(t *testing.T) {
	// Two distinct values must collide on a b-bit digest w.p. ~2^-b; the
	// path-tracing inference time depends on this directly.
	g := NewGlobal(8)
	for _, b := range []int{1, 4, 8} {
		coll, n := 0, 50000
		for pkt := uint64(0); pkt < uint64(n); pkt++ {
			if g.ValueDigest(111, pkt, b) == g.ValueDigest(222, pkt, b) {
				coll++
			}
		}
		want := math.Pow(2, -float64(b))
		got := float64(coll) / float64(n)
		if math.Abs(got-want) > math.Max(0.004, want*0.15) {
			t.Fatalf("b=%d: collision rate %v, want %v", b, got, want)
		}
	}
}

func TestFragmentRange(t *testing.T) {
	g := NewGlobal(9)
	counts := make([]int, 4)
	const n = 100000
	for pkt := uint64(0); pkt < n; pkt++ {
		f := g.Fragment(pkt, 4)
		if f < 0 || f >= 4 {
			t.Fatalf("fragment %d out of range", f)
		}
		counts[f]++
	}
	for f, c := range counts {
		if math.Abs(float64(c)-n/4.0) > n/4.0*0.05 {
			t.Fatalf("fragment %d: %d, want ~%d", f, c, n/4)
		}
	}
	if g.Fragment(42, 1) != 0 || g.Fragment(42, 0) != 0 {
		t.Fatal("degenerate fragment counts must map to 0")
	}
}

func TestInstanceIndependence(t *testing.T) {
	g := NewGlobal(10)
	i0, i1 := g.Instance(0), g.Instance(1)
	same := 0
	for pkt := uint64(0); pkt < 1000; pkt++ {
		if i0.ValueDigest(5, pkt, 16) == i1.ValueDigest(5, pkt, 16) {
			same++
		}
	}
	// 16-bit digests collide w.p. 2^-16; a thousand trials should see ~0.
	if same > 3 {
		t.Fatalf("instances look correlated: %d matches", same)
	}
}

// TestActMaskMatchesActBelow: the decoder's one-call acting set is ActBelow
// asked hop by hop, for every path length the wire carries and for the
// saturated and empty thresholds too.
func TestActMaskMatchesActBelow(t *testing.T) {
	g := NewGlobal(5)
	for _, threshold := range []uint64{0, Threshold(0.04), Threshold(0.5), ^uint64(0)} {
		for p := uint64(0); p < 3000; p++ {
			k := 1 + int(p%64)
			var want uint64
			for hop := 1; hop <= k; hop++ {
				if g.ActBelow(p, hop, threshold) {
					want |= 1 << uint(hop-1)
				}
			}
			if got := g.ActMask(p, k, threshold); got != want {
				t.Fatalf("pkt=%d k=%d threshold=%#x: mask %#x, ActBelow says %#x", p, k, threshold, got, want)
			}
		}
	}
}

// TestCheckedSample: the route-check sample takes 1 packet in 2^shift,
// every packet at shift 0, and falls independently of layer selection
// and of the act decisions: among the packets on either side of the
// layer point's median, and among those hop 1 acts on at p = 1/2, it
// still takes about 1 in 2^shift.
func TestCheckedSample(t *testing.T) {
	g := NewGlobal(7)
	const n = 1 << 17
	for p := uint64(0); p < 1000; p++ {
		if !g.Checked(p, 0) {
			t.Fatal("shift 0 must check every packet")
		}
	}
	for _, shift := range []uint{3, 4} {
		var all, low, acted, nLow, nActed int
		for p := uint64(0); p < n; p++ {
			c := g.Checked(p, shift)
			if c {
				all++
			}
			if g.LayerPoint(p) < 0.5 {
				nLow++
				if c {
					low++
				}
			}
			if g.Act(p, 1, 0.5) {
				nActed++
				if c {
					acted++
				}
			}
		}
		for _, r := range []struct {
			what      string
			hits, out int
		}{{"all packets", all, n}, {"low layer points", low, nLow}, {"hop 1 acting", acted, nActed}} {
			want := float64(r.out) / float64(uint(1)<<shift)
			if math.Abs(float64(r.hits)-want) > want*0.07 {
				t.Errorf("shift %d, %s: %d of %d checked, want %.0f +/- 7%%", shift, r.what, r.hits, r.out, want)
			}
		}
	}
}
