package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile for
// it to be reported (choosing-metrics guide §1).
const minTail = 10

// tailLadder is the set of percentiles a latency report may carry, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// highestPercentile returns the highest percentile of tailLadder that has
// at least minTail samples beyond it in a sample of n, or 50 when even the
// lowest rung is unsupported.
func highestPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= minTail*100-1e-6 { // n·(1−p/100) ≥ minTail, safe against rounding
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (the mean of the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is the rule the driver applies to a metric's ten runs. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 { // the i-th quartile cut, i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of xs as a share of its median: the
// interquartile distance for four or more runs, the full range for two or
// three, 0 for a single run.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := sortedCopy(xs)
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// finite maps NaN and ±Inf to 0 so every reported value encodes as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// total is the sum of xs.
func total(xs []float64) float64 {
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum
}
