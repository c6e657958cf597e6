package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs: the smallest sample
// with at least p percent of the samples at or below it. It returns 0 for
// an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one or two outliers, not a tail.
const tailSamples = 10

// tailPercentile is percentile(xs, p) when at least tailSamples samples
// lie beyond the p-th percentile, and ok=false otherwise.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	beyond := float64(len(xs)) * (100 - p) / 100
	if beyond < tailSamples {
		return 0, false
	}
	return percentile(xs, p), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// scale multiplies xs by f in place.
func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

// geoMean is the geometric mean of positive samples.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// a spread printed here is the spread the benchmark driver measures. It
// needs at least two samples; with fewer all three are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile range of xs as a share of its median:
// the run-to-run spread a regression bound is judged against.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
