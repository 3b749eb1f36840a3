package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the rule of Python's
// statistics.quantiles with method "exclusive": the value at position
// p·(n+1) of the sorted samples, interpolated linearly between
// neighbours. The position is clamped to the inner n-1 gaps, so with very
// few samples the result extrapolates past the extremes exactly as that
// function does; spreads computed here then equal the ones an acceptance
// script computes from the same values. One sample is its own quantile;
// no samples give NaN.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	j := min(max(int(math.Floor(h)), 1), n-1)
	return s[j-1] + (s[j]-s[j-1])*(h-float64(j))
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a metric's distribution over its samples: the median, the
// first and third quartiles, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the summary of xs.
func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise a metric's bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
