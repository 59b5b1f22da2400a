package analysis

import (
	"math"
	"sort"
	"testing"

	"repro/internal/hash"
)

func TestHarmonic(t *testing.T) {
	if harmonic(1) != 1 {
		t.Fatal("H_1 must be 1")
	}
	if math.Abs(harmonic(2)-1.5) > 1e-12 {
		t.Fatal("H_2 must be 1.5")
	}
	// H_n ≈ ln n + γ.
	if math.Abs(harmonic(10000)-(math.Log(10000)+0.5772)) > 0.001 {
		t.Fatalf("H_10000 = %v", harmonic(10000))
	}
}

// couponTrial draws until n distinct of r coupons are seen; returns draws.
func couponTrial(rng *hash.RNG, r, n int) int {
	seen := make([]bool, r)
	distinct, draws := 0, 0
	for distinct < n {
		c := rng.Intn(r)
		draws++
		if !seen[c] {
			seen[c] = true
			distinct++
		}
	}
	return draws
}

func TestCouponCollectorMeanMonteCarlo(t *testing.T) {
	rng := hash.NewRNG(1)
	const k, trials = 25, 3000
	total := 0
	for i := 0; i < trials; i++ {
		total += couponTrial(rng, k, k)
	}
	got := float64(total) / trials
	want := CouponCollectorMean(k)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical %v vs formula %v", got, want)
	}
}

func TestLemma9Holds(t *testing.T) {
	// After Lemma9Draws draws, at most ψ·K coupons remain uncollected in
	// >= (1-δ) of runs.
	rng := hash.NewRNG(6)
	const k, trials = 64, 1000
	const psi, delta = 0.125, 0.05
	n := int(math.Ceil(Lemma9Draws(k, psi, delta)))
	fails := 0
	for i := 0; i < trials; i++ {
		seen := make([]bool, k)
		for j := 0; j < n; j++ {
			seen[rng.Intn(k)] = true
		}
		missing := 0
		for _, s := range seen {
			if !s {
				missing++
			}
		}
		if float64(missing) > psi*k {
			fails++
		}
	}
	if rate := float64(fails) / trials; rate > delta {
		t.Fatalf("failure rate %v exceeds delta %v at N=%d", rate, delta, n)
	}
	if !math.IsInf(Lemma9Draws(10, 0, 0.1), 1) || !math.IsInf(Lemma9Draws(10, 0.9, 0.1), 1) {
		t.Fatal("psi outside (0, 1/2] must give an infinite bound")
	}
}

func TestTheorem1SampleComplexity(t *testing.T) {
	// With Theorem1Packets packets spread uniformly over k hops, each hop
	// receives enough samples that a median estimate from its sub-stream
	// has rank error <= eps in the vast majority of runs.
	rng := hash.NewRNG(7)
	const k = 5
	const eps = 0.1
	z := Theorem1Packets(k, eps)
	const trials = 200
	bad := 0
	for tr := 0; tr < trials; tr++ {
		// Hop streams: uniform values; PINT samples one hop per packet.
		samples := make([][]float64, k)
		for j := 0; j < z; j++ {
			h := rng.Intn(k)
			samples[h] = append(samples[h], rng.Float64())
		}
		for h := 0; h < k; h++ {
			if len(samples[h]) == 0 {
				bad++
				break
			}
			sort.Float64s(samples[h])
			med := samples[h][len(samples[h])/2]
			// True median of U[0,1) is 0.5; rank error = |med - 0.5|.
			if math.Abs(med-0.5) > eps {
				bad++
				break
			}
		}
	}
	if rate := float64(bad) / trials; rate > 0.1 {
		t.Fatalf("median failed eps=%v in %v of runs with z=%d", eps, rate, z)
	}
}

func TestTheorem3MatchesImplementation(t *testing.T) {
	// The closed form must be within a small constant of what the tested
	// multi-layer implementation achieves (coding's own test checks the
	// other direction).
	if b := Theorem3Packets(25); b < 25 || b > 25*5 {
		t.Fatalf("Theorem3Packets(25) = %v out of sanity range", b)
	}
	if Theorem3Packets(59) <= Theorem3Packets(25) {
		t.Fatal("bound must grow with k")
	}
}
