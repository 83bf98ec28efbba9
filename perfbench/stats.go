package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that divide xs into four groups,
// by the same "exclusive" method as Python's statistics.quantiles(xs, n=4),
// so spreads printed here agree with the ones computed over run results.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile range of xs as a share of its median: the
// spread statistic the benchmark's bounds are stated in.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// sorting xs in place. It returns NaN for an empty sample.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return float64(xs[rank-1])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
