package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer samples is one or two outliers, not a
// tail.
const minTail = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs, averaging the two middle values of an
// even count (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highMedian returns the upper of the two middle samples of an even
// count, and the middle one of an odd count (0 for no samples). Unlike
// the averaged median, it is always a sample: when the samples fall in
// clusters of equal size (the Table 1 cells, each run once per pass), it
// lands inside a cluster instead of halfway between two.
func highMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[len(xs)/2]
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread checks use. It needs at least two samples; with
// fewer both quartiles equal the lone sample (0 for none).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or below
// it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile is percentile restricted to the tail the sample count
// supports: ok is false unless at least minTail samples lie beyond the
// nearest rank, so p90 needs 100 samples and p99 needs 1000.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	rank := int(math.Ceil(p * float64(len(xs)) / 100))
	if len(xs)-rank < minTail {
		return 0, false
	}
	return percentile(xs, p), true
}
