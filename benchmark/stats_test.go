package main

import (
	"errors"
	"testing"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	// Quartile goldens follow Python's statistics.quantiles(xs, n=4)
	// ("exclusive"), computed by hand from its interpolation rule.
	cases := []struct {
		xs                   []float64
		median, high, q1, q3 float64
	}{
		{nil, 0, 0, 0, 0},
		{[]float64{3}, 3, 3, 3, 3},
		{[]float64{4, 2}, 3, 4, 1.5, 4.5},
		{[]float64{7, 1, 5}, 5, 5, 1, 7},
		{[]float64{4, 1, 3, 2}, 2.5, 3, 1.25, 3.75},
		{seq(1, 10), 5.5, 6, 2.75, 8.25},
		{[]float64{10, 10, 10, 40}, 10, 10, 10, 32.5},
		// Two clusters of equal size: the high median stays inside one.
		{[]float64{1, 1.1, 0.9, 9, 9.2, 8.8}, 4.95, 8.8, 0.975, 9.05},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.median)
		}
		if got := highMedian(c.xs); got != c.high {
			t.Errorf("highMedian(%v) = %g, want %g", c.xs, got, c.high)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{50, 15, 35, 20, 40}
	cases := []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
		ok   bool
	}{
		{seq(1, 99), 90, 0, false}, // rank 90 leaves 9 beyond: unit_ms_p90 omitted
		{seq(1, 100), 90, 90, true},
		{seq(1, 200), 90, 180, true},
		{seq(1, 999), 99, 0, false},
		{seq(1, 1000), 99, 990, true},
		{nil, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d samples, %g) = %g, %t, want %g, %t", len(c.xs), c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestFailRatio(t *testing.T) {
	runErr := errors.New("grid output differs")
	cases := []struct {
		name                   string
		attempted, failedUnits int
		err                    error
		failed                 int
		ratio                  float64
		exit                   int
	}{
		{"clean", 200, 0, nil, 0, 0, 0},
		{"unit failures", 200, 50, nil, 50, 0.25, 1},
		{"run-level check fails every unit", 200, 3, runErr, 200, 1, 1},
		{"more failures than units", 10, 12, nil, 10, 1, 1},
		{"nothing ran", 0, 0, nil, 1, 1, 1},
	}
	for _, c := range cases {
		r := newReport(c.attempted, c.failedUnits, c.err, nil)
		if r.Failed != c.failed || r.failRatio() != c.ratio || r.exitCode() != c.exit {
			t.Errorf("%s: failed %d, ratio %g, exit %d; want %d, %g, %d",
				c.name, r.Failed, r.failRatio(), r.exitCode(), c.failed, c.ratio, c.exit)
		}
	}
}
