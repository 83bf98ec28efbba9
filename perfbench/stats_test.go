package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

// The expected cut points are those of Python's
// statistics.quantiles(xs, n=4), including its extrapolation for tiny
// samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    float64
		want float64
	}{{1, 10}, {20, 10}, {21, 20}, {50, 30}, {99, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values should be NaN")
	}
}
