package hash

import "testing"

// TestActHashColumnMatchesScalar pins the column helper to the scalar
// act-decision hash and to every decision built on it.
func TestActHashColumnMatchesScalar(t *testing.T) {
	g := NewGlobal(Seed(0xC01))
	const n = 131
	pkts := make([]uint64, n)
	for i := range pkts {
		pkts[i] = Seed(7).Hash1(uint64(i))
	}
	h := make([]uint64, n)
	for _, hop := range []int{1, 2, 3, 5, 17, 64, 65, 1000} {
		g.ActHashColumn(h, pkts, uint64(hop))
		thr := ReservoirThreshold(hop)
		for i, pkt := range pkts {
			if want := g.g.Hash2(pkt, uint64(hop)); h[i] != want {
				t.Fatalf("hop %d pkt %#x: column hash %#x, want %#x", hop, pkt, h[i], want)
			}
			wantWrite := g.ReservoirWrites(pkt, hop)
			gotWrite := hop <= 1 || h[i] < thr
			if wantWrite != gotWrite {
				t.Fatalf("hop %d pkt %#x: column reservoir %v, scalar %v", hop, pkt, gotWrite, wantWrite)
			}
		}
	}
}

// TestActKeyColumnMatchesScalar: one first round per packet, completed by
// ActAt at any hop, is the act-decision hash itself.
func TestActKeyColumnMatchesScalar(t *testing.T) {
	g := NewGlobal(Seed(0xC03))
	const n = 97
	pkts := make([]uint64, n)
	for i := range pkts {
		pkts[i] = Seed(9).Hash1(uint64(i))
	}
	pkts[0], pkts[1] = 0, ^uint64(0)
	keys := make([]uint64, n)
	g.ActKeyColumn(keys, pkts)
	h := make([]uint64, n)
	for _, hop := range []int{0, 1, 2, 5, 64, 65, 1 << 20} {
		g.ActHashColumn(h, pkts, uint64(hop))
		for i, pkt := range pkts {
			if got := ActAt(keys[i], uint64(hop)); got != h[i] || got != g.g.Hash2(pkt, uint64(hop)) {
				t.Fatalf("hop %d pkt %#x: ActAt %#x, column %#x", hop, pkt, got, h[i])
			}
		}
	}
}

// TestValueDigestColumnsMatchScalar pins the two value-hash column shapes.
func TestValueDigestColumnsMatchScalar(t *testing.T) {
	g := NewGlobal(Seed(0xC02))
	const n = 67
	pkts := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range pkts {
		pkts[i] = Seed(11).Hash1(uint64(i))
		vals[i] = Seed(13).Hash1(uint64(i))
	}
	dst := make([]uint64, n)
	for _, b := range []int{0, 1, 4, 8, 33, 63, 64} {
		g.ValueDigestColumn(dst, vals, pkts, b)
		for i := range dst {
			if want := g.ValueDigest(vals[i], pkts[i], b); dst[i] != want {
				t.Fatalf("b=%d i=%d: column %#x, want %#x", b, i, dst[i], want)
			}
		}
	}
	for _, pkt := range pkts[:4] {
		g.ValueHashColumn(dst, vals, pkt)
		for i := range dst {
			for _, b := range []int{1, 8, 64} {
				if want := g.ValueDigest(vals[i], pkt, b); Bits(dst[i], b) != want {
					t.Fatalf("pkt=%#x i=%d b=%d: column %#x, want %#x", pkt, i, b, Bits(dst[i], b), want)
				}
			}
		}
	}
}

// TestReservoirThresholdBounds pins the exported threshold at the table
// boundary and in the Below fallback range.
func TestReservoirThresholdBounds(t *testing.T) {
	if got := ReservoirThreshold(0); got != ^uint64(0) {
		t.Fatalf("hop 0 threshold %#x, want saturation", got)
	}
	if got := ReservoirThreshold(1); got != ^uint64(0) {
		t.Fatalf("hop 1 threshold %#x, want saturation", got)
	}
	for _, hop := range []int{2, 3, 64, 65, 66, 4096} {
		thr := ReservoirThreshold(hop)
		if want := Threshold(1 / float64(hop)); thr != want {
			t.Fatalf("hop %d threshold %#x, want %#x", hop, thr, want)
		}
		if thr == 0 || thr == ^uint64(0) {
			t.Fatalf("hop %d threshold %#x degenerate", hop, thr)
		}
	}
}
