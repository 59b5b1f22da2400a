// Package analysis implements the probabilistic bounds of the paper's
// Appendix A that cmd/pintplan quotes per query, in executable form: the
// coupon-collector mean, the all-but-ψk collection bound (Lemma 9), and
// the packet counts of Theorems 1 and 3. The test suite checks each
// closed form against Monte Carlo simulation or the implementation, which
// is how the repository "proves" the performance bounds hold for the
// implementation and not just on paper.
package analysis

import "math"

// harmonic returns the n-th harmonic number H_n.
func harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// CouponCollectorMean returns k·H_k, the expected draws to collect all of
// k equally likely coupons.
func CouponCollectorMean(k int) float64 {
	return float64(k) * harmonic(k)
}

// Lemma9Draws returns Lemma 9's bound on collecting all but ψ·K coupons:
//
//	K·ln(1/ψ) + (1/ψ)·ln(1/δ) + sqrt(2·K·(1/ψ)·ln(1/ψ)·ln(1/δ)).
func Lemma9Draws(k int, psi, delta float64) float64 {
	if psi <= 0 || psi > 0.5 {
		return math.Inf(1)
	}
	lnPsi := math.Log(1 / psi)
	lnD := math.Log(1 / delta)
	return float64(k)*lnPsi + lnD/psi + math.Sqrt(2*float64(k)/psi*lnPsi*lnD)
}

// Theorem1Packets returns the sample complexity of the quantile
// aggregation: O(k·ε⁻²) packets give every hop Θ(ε⁻²) samples, enough for
// a (φ±ε)-quantile. The constant below (4) comes from the Chernoff
// argument in A.1 and is validated empirically in the tests.
func Theorem1Packets(k int, eps float64) int {
	return int(math.Ceil(4 * float64(k) / (eps * eps)))
}

// Theorem3Packets returns the multi-layer scheme's k·(log log* k + c)
// packet bound with A.3's constant c = 2 for d = k.
func Theorem3Packets(k int) float64 {
	ls := 0
	x := float64(k)
	for x > 1 {
		x = math.Log2(x)
		ls++
	}
	lls := math.Log2(float64(ls))
	if lls < 0 {
		lls = 0
	}
	return float64(k) * (lls + 2)
}
