package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// supportedPercentile returns the highest percentile at or below want
// that still has at least minBeyond of n samples beyond it, or 0 when no
// percentile does (n <= minBeyond).
func supportedPercentile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	return math.Min(want, 100*float64(n-minBeyond)/float64(n))
}

// median is the mean of the middle two for even counts, so a two-rep run
// does not report its slower rep as "the median".
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tail reports the want-th percentile of v under the ≥minBeyond rule: the
// value, the percentile actually used, and whether any was supported.
// The rank is capped in whole samples, so rounding can never leave fewer
// than minBeyond beyond it.
func tail(v []float64, want float64) (value, used float64, ok bool) {
	n := len(v)
	if n <= minBeyond {
		return math.NaN(), 0, false
	}
	rank := min(int(math.Ceil(want/100*float64(n)-1e-9)), n-minBeyond)
	rank = max(rank, 1)
	return sortedCopy(v)[rank-1], supportedPercentile(n, want), true
}

// relWorse is by how much b is worse than a, as a share of a, for a
// metric whose better direction is given; negative means b is better.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func ms(ns float64) float64 { return ns / 1e6 }

func fmtSamples(name string, n int, used float64) string {
	return fmt.Sprintf("%s: p%.4g of %d samples", name, used, n)
}
