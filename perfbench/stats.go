package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so a spread reported here equals one a Python harness computes
// from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// iqrShare is the distance between the first and third quartile as a share
// of the median: the run-to-run spread measure the benchmark bounds.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
