package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points dividing xs into quarters, by the
// same rule as Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so spreads computed here match the ones computed
// from a run's printed values. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the interquartile range as a share of the median: the
// run-to-run spread measure the benchmark's bounds are checked against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
