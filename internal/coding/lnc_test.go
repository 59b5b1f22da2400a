package coding

import (
	"testing"

	"repro/internal/hash"
)

// solve back-substitutes a full-rank system and returns the k blocks: what
// the rows Observe keeps must decode to.
func solve(t *testing.T, l *LNC) []uint64 {
	t.Helper()
	if !l.Done() {
		t.Fatalf("LNC rank %d < k=%d", l.rank, l.k)
	}
	// Copy rows, then eliminate upward so each row has exactly one bit.
	rows := append([]lncRow(nil), l.rows...)
	for bit := 0; bit < l.k; bit++ {
		r := l.pivots[bit]
		row := rows[r]
		for other := range rows {
			if other != r && rows[other].coeff&(1<<uint(bit)) != 0 {
				rows[other].coeff ^= row.coeff
				rows[other].val ^= row.val
			}
		}
	}
	out := make([]uint64, l.k)
	for bit := range out {
		out[bit] = rows[l.pivots[bit]].val
	}
	return out
}

func TestLNCConstruct(t *testing.T) {
	g := hash.NewGlobal(1)
	if _, err := NewLNC(g, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := NewLNC(g, 65); err == nil {
		t.Fatal("k=65 must be rejected")
	}
}

func TestLNCEncodeMatchesCoeffs(t *testing.T) {
	g := hash.NewGlobal(2)
	l, _ := NewLNC(g, 8)
	blocks := pathValues(8)
	for pkt := uint64(0); pkt < 1000; pkt++ {
		dig := l.Encode(pkt, blocks)
		var want uint64
		coeff := l.coeffVector(pkt)
		for hop := 1; hop <= 8; hop++ {
			if coeff&(1<<uint(hop-1)) != 0 {
				want ^= blocks[hop-1]
			}
		}
		if dig != want {
			t.Fatalf("pkt %d: encode/coeff mismatch", pkt)
		}
	}
}

func TestLNCDecodesAndSolves(t *testing.T) {
	for _, k := range []int{2, 5, 16, 25, 59} {
		g := hash.NewGlobal(hash.Seed(100 + k))
		l, _ := NewLNC(g, k)
		blocks := pathValues(k)
		rng := hash.NewRNG(uint64(k))
		n := 0
		for !l.Done() {
			pkt := rng.Uint64()
			l.Observe(pkt, l.Encode(pkt, blocks))
			n++
			if n > 10*k+200 {
				t.Fatalf("k=%d: LNC not decoded after %d packets", k, n)
			}
		}
		got := solve(t, l)
		for i := range blocks {
			if got[i] != blocks[i] {
				t.Fatalf("k=%d block %d: got %d want %d", k, i, got[i], blocks[i])
			}
		}
	}
}

func TestLNCNearOptimalPacketCount(t *testing.T) {
	// §4.2: LNC needs ≈ k + log₂k packets. Average over trials.
	const k, trials = 25, 200
	total := 0
	rng := hash.NewRNG(9)
	blocks := pathValues(k)
	for tr := 0; tr < trials; tr++ {
		l, _ := NewLNC(hash.NewGlobal(hash.Seed(rng.Uint64())), k)
		sub := rng.Split()
		n := 0
		for !l.Done() {
			pkt := sub.Uint64()
			l.Observe(pkt, l.Encode(pkt, blocks))
			n++
		}
		total += n
	}
	mean := float64(total) / trials
	if mean < float64(k) || mean > float64(k)+10 {
		t.Fatalf("LNC mean packets %v, want within [k, k+10] ≈ k+log₂k", mean)
	}
}

func TestLNCRedundantPacketsHarmless(t *testing.T) {
	g := hash.NewGlobal(4)
	l, _ := NewLNC(g, 5)
	blocks := pathValues(5)
	rng := hash.NewRNG(2)
	for !l.Done() {
		pkt := rng.Uint64()
		l.Observe(pkt, l.Encode(pkt, blocks))
	}
	// Extra packets after completion must not corrupt the solution.
	for i := 0; i < 100; i++ {
		pkt := rng.Uint64()
		l.Observe(pkt, l.Encode(pkt, blocks))
	}
	got := solve(t, l)
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatal("solution corrupted by redundant packets")
		}
	}
}
