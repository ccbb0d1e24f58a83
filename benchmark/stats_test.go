package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same lists.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7, 1, 3, 5, 9, 11, 13}, 7, 3, 11},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5, 5, 5, 5, 5, 5, 5, 5, 6, 6}, 5, 5, 5.25},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	s := summarize([]float64{4, 2, 8, 6})
	if s.N != 4 || s.Min != 2 || s.Max != 8 || s.Median != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestRoundExtension(t *testing.T) {
	steady := []float64{1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01}
	noisy := []float64{1.0, 1.3, 1.0, 1.3, 1.0, 1.3, 1.1}
	if needsMoreRounds([][]float64{steady, steady}, 7) {
		t.Error("steady samples asked for another round")
	}
	if !needsMoreRounds([][]float64{steady, noisy}, 7) {
		t.Error("one noisy workload must extend the rounds of all")
	}
	if needsMoreRounds([][]float64{noisy}, maxRounds) {
		t.Error("rounds must stop at the cap however noisy")
	}
}
