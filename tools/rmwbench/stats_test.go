package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quantile to Python's
// statistics.quantiles(xs, n=4) (method "exclusive") and
// statistics.median, the rule an acceptance script applies to the same
// values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 7, 2.5, 8, 4, 6}, 2.75, 5, 7.75},
		{[]float64{42}, 42, 42, 42},
	} {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.q2) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestQuantileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = quantile(xs, 0.9)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile sorted its input: %v", xs)
	}
}

func TestSpread(t *testing.T) {
	if got := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); !near(got, 5.5/5.5) {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := summarize([]float64{7}).spread(); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
